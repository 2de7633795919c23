"""Independent brute-force oracles used to pin expected test values.

Everything here recomputes quantities from first principles (2^n subset
sweeps, dense linear algebra) without touching the package's enumeration or
solver paths, so oracle and implementation can disagree.
"""
import numpy as np
import scipy.linalg


def subset_sweep(graph):
    """(masks, independent?, sizes) over all 2^n subsets, vectorized."""
    n = graph.n
    masks = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(1 << n, dtype=bool)
    for u, v in graph.edges:
        ok &= ~(((masks >> u) & 1) & ((masks >> v) & 1)).astype(bool)
    sizes = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        sizes += (masks >> v) & 1
    return masks, ok, sizes


def brute_counts(graph):
    """Independence polynomial by direct enumeration over all subsets."""
    _, ok, sizes = subset_sweep(graph)
    counts = np.bincount(sizes[ok], minlength=graph.n + 1)
    last = int(np.max(np.nonzero(counts)[0]))
    return [int(c) for c in counts[: last + 1]]


def brute_independent_sets(graph, b=None):
    masks, ok, sizes = subset_sweep(graph)
    if b is not None:
        ok = ok & (sizes == b)
    return [int(z) for z in masks[ok]]


def brute_exchange_neighbors(graph, z):
    """Spin-exchange targets of mask z by direct pairwise checks."""
    adj = {v: set() for v in range(graph.n)}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    occupied = [v for v in range(graph.n) if (z >> v) & 1]
    out = set()
    for u in occupied:
        for v in adj[u]:
            if (z >> v) & 1:
                continue
            z2 = (z & ~(1 << u)) | (1 << v)
            members = [w for w in range(graph.n) if (z2 >> w) & 1]
            if all(b not in adj[a] for i, a in enumerate(members)
                   for b in members[i + 1:]):
                out.add(z2)
    return out


def dense_fiedler_gap(nodes, edge_pairs):
    """Two smallest Laplacian eigenvalues of an explicit node/edge list."""
    m = len(nodes)
    pos = {z: i for i, z in enumerate(nodes)}
    lap = np.zeros((m, m))
    for a, b in edge_pairs:
        i, j = pos[a], pos[b]
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
        lap[i, i] += 1.0
        lap[j, j] += 1.0
    w = scipy.linalg.eigh(lap, eigvals_only=True, subset_by_index=(0, 1))
    return float(w[1] - w[0])


def gibbs_distribution(graph, beta, delta=1.0):
    """Exact Gibbs weights over independent sets (restricted mode).

    Returns (masks, probabilities) with energy -delta * |z|.
    """
    masks, ok, sizes = subset_sweep(graph)
    masks, sizes = masks[ok], sizes[ok]
    logw = beta * delta * sizes.astype(float)
    logw -= logw.max()
    w = np.exp(logw)
    return [int(z) for z in masks], w / w.sum()


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def dense_hamiltonian(graph, basis, omega, delta, lam=0.0):
    """Dense H = H_cost - H_drive + lam * H_laplacian on an explicit basis,
    built by direct pairwise rules (independent of the package assembler)."""
    adj = {v: set() for v in range(graph.n)}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    index = {z: i for i, z in enumerate(basis)}
    dim = len(basis)
    H = np.zeros((dim, dim))
    for i, z in enumerate(basis):
        H[i, i] = -delta * bin(z).count("1")
        for v in range(graph.n):
            z2 = z ^ (1 << v)
            j = index.get(z2)
            if j is not None:
                H[i, j] -= omega
        if lam:
            deg = 0
            occupied = [v for v in range(graph.n) if (z >> v) & 1]
            for u in occupied:
                for v in adj[u]:
                    if (z >> v) & 1:
                        continue
                    z2 = (z & ~(1 << u)) | (1 << v)
                    j = index.get(z2)
                    if j is not None:
                        deg += 1
                        H[i, j] -= lam
            H[i, i] += lam * deg
    return H


def gibbs_diagonal(H, beta):
    """Diagonal of exp(-beta H)/Z by dense diagonalization."""
    w, V = scipy.linalg.eigh(H)
    pops = (V ** 2) @ np.exp(-beta * (w - w[0]))
    return pops / pops.sum()


def trotter_marginal(H, beta, slices):
    """Exact slice-1 marginal of the off-diagonal/diagonal Trotterized path
    integral, via the transfer matrix (W_od W_d)^M."""
    diag = np.diag(H).copy()
    Hod = H - np.diag(diag)
    Wod = scipy.linalg.expm(-beta / slices * Hod)
    T = Wod @ np.diag(np.exp(-beta / slices * diag))
    TM = np.linalg.matrix_power(T, slices)
    marg = np.diag(TM).copy()
    return marg / marg.sum()


def brute_heff_entries(H, G, E, z):
    """2x2 effective-Hamiltonian entries <a|H + H Q (z - QHQ)^-1 Q H|b> for
    a, b in {G, E} (orthonormal), from explicit P and Q matrices and one
    dense general solve."""
    H = H.toarray() if hasattr(H, "toarray") else np.asarray(H, dtype=float)
    dim = H.shape[0]
    P = np.outer(G, G) + np.outer(E, E)
    Q = np.eye(dim) - P
    K = H @ Q @ np.linalg.solve(z * np.eye(dim) - Q @ H @ Q, Q @ H)
    states = {"G": G, "E": E}
    return {a + b: float(states[a] @ (H + K) @ states[b])
            for a in states for b in states}


def brute_emax(graph, b, omega, delta, lam, beta, k=1):
    """QMC enhancement factor from a full eigh: the top Gibbs population of
    the size-<b block among configurations within k flips of a size-b set,
    times the number of size-(b-1) sets."""
    masks, ok, sizes = subset_sweep(graph)
    basis = [int(z) for z in masks[ok & (sizes < b)]]
    pops = gibbs_diagonal(dense_hamiltonian(graph, basis, omega, delta, lam),
                          beta)
    pos = {z: i for i, z in enumerate(basis)}
    ball = {int(z) for z in masks[ok & (sizes == b)]}
    for _ in range(k):
        ball |= {z ^ (1 << v) for z in ball for v in range(graph.n)}
    best = max(pops[pos[z]] for z in ball if z in pos)
    return float(best) * int(np.sum(ok & (sizes == b - 1)))
