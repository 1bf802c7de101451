"""High-precision references for the tests, in mpmath: the erf matrix whose
Pfaffian is the no-collision probability, and a Pfaffian evaluator.  Each
takes the mpmath module and works in its current precision."""


def mp_erf_matrix(x, t, mp):
    """The erf matrix of points x (length N) over time t as an mpmath
    matrix: A_ij = erf((x_j - x_i) / (2 sqrt(t))) for i < j, A_ji = -A_ij,
    bordered at odd N by a last row and column with A_iN = 1, A_Ni = -1.
    Its order is N + N % 2, and Pf(A) is the probability that Brownian
    particles started at x keep their order up to time t."""
    n = len(x)
    xm = [mp.mpf(v) for v in x]
    scale = 2 * mp.sqrt(t)
    a = mp.matrix(n + n % 2, n + n % 2)
    for i in range(n):
        if n % 2:
            a[i, n], a[n, i] = 1, -1
        for j in range(i + 1, n):
            v = mp.erf((xm[j] - xm[i]) / scale)
            a[i, j], a[j, i] = v, -v
    return a


def mp_pfaffian(a, mp):
    """Pfaffian of a skew-symmetric mpmath matrix by Parlett-Reid with
    partial pivoting, in the working precision of mp."""
    a = a.copy()
    n = a.rows
    pf = mp.mpf(1)
    for k in range(0, n - 1, 2):
        kp = max(range(k + 1, n), key=lambda r: abs(a[r, k]))
        if kp != k + 1:
            for c in range(n):
                a[k + 1, c], a[kp, c] = a[kp, c], a[k + 1, c]
            for r in range(n):
                a[r, k + 1], a[r, kp] = a[r, kp], a[r, k + 1]
            pf = -pf
        piv = a[k, k + 1]
        pf *= piv
        for i in range(k + 2, n):
            for j in range(k + 2, n):
                a[i, j] += (a[k, i] * a[j, k + 1]
                            - a[i, k + 1] * a[k, j]) / piv
    return pf
