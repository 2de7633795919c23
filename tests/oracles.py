"""Independent brute-force oracles used to pin expected test values.

Everything here recomputes quantities from first principles (2^n subset
sweeps, dense linear algebra) without touching the package's enumeration or
solver paths, so oracle and implementation can disagree.
"""
import math

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


def brute_heff_slopes(H, G, E, z):
    """d/dz of the 2x2 effective-Hamiltonian entries, -rhs^T (z - QHQ)^-2 rhs
    with rhs = Q H [G E], from a dense eigendecomposition of H on an
    orthonormal basis of the complement of span{G, E}."""
    H = H.toarray() if hasattr(H, "toarray") else np.asarray(H, dtype=float)
    U = np.column_stack([G, E])
    B = scipy.linalg.null_space(U.T)
    k, V = np.linalg.eigh(B.T @ H @ B)
    y = V.T @ (B.T @ H @ U)
    m = -(y.T / (z - k) ** 2) @ y
    return {"m_gg": float(m[0, 0]), "m_ee": float(m[1, 1]),
            "m_ge": float(m[0, 1])}


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


# --- reference scalar samplers -------------------------------------------
# The one-proposal-at-a-time SA and PT chains the package ran before its
# samplers read their uniforms as chunk lists, kept verbatim (numpy scalar
# draws, an object per chain) as the byte-identity reference for
# classical_mc.sa_run and pt_run.  Each returns the MCResult fields it
# fills, as a dict.

SCALAR_CHUNK = 8192


def _scalar_components(vertices, adj):
    comps = []
    todo = vertices
    while todo:
        seed = todo & -todo
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            f = frontier
            while f:
                low = f & -f
                v = low.bit_length() - 1
                f ^= low
                grow |= adj[v] & todo & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        todo &= ~comp
    return comps


def _scalar_violations(mask, adj):
    """Edges with both ends in ``mask``."""
    return sum(bin(adj[v] & mask).count("1")
               for v in range(len(adj)) if mask >> v & 1) // 2


class ScalarUniforms:
    """Chunked uniform draws from Philox (seed, stream), one numpy scalar
    per call."""

    def __init__(self, seed, stream):
        self.rng = np.random.Generator(np.random.Philox(key=[seed, stream]))
        self.buf = self.rng.random(SCALAR_CHUNK)
        self.pos = 0

    def __call__(self):
        if self.pos == len(self.buf):
            self.buf = self.rng.random(SCALAR_CHUNK)
            self.pos = 0
        v = self.buf[self.pos]
        self.pos += 1
        return v


class ScalarChain:
    """One Metropolis chain on bitmask states."""

    def __init__(self, graph, mode, penalty, delta):
        self.graph = graph
        self.n = graph.n
        self.adj = graph.adjacency()
        self.dir_edges = graph.directed_edges()
        self.mode = mode
        self.delta = delta
        self.penalty = (2.0 * graph.n if penalty is None else penalty) \
            if mode == "penalty" else None
        self.mask = 0
        self.size = 0
        self.violations = 0

    def energy(self):
        e = -self.delta * self.size
        if self.mode == "penalty":
            e += self.penalty * self.violations
        return e

    def propose(self, u01, p_flip, beta):
        """One proposed update; three uniforms consumed; returns accepted."""
        r_move, r_pick, r_acc = u01(), u01(), u01()
        if r_move < p_flip:
            v = int(r_pick * self.n)
            bit = 1 << v
            conflicts = bin(self.adj[v] & self.mask).count("1")
            if self.mask & bit:
                d_h = self.delta
                if self.mode == "penalty":
                    d_h -= self.penalty * conflicts
                if d_h <= 0 or r_acc < math.exp(-beta * d_h):
                    self.mask ^= bit
                    self.size -= 1
                    if self.mode == "penalty":
                        self.violations -= conflicts
                    return True
                return False
            if self.mode == "restricted":
                if conflicts:
                    return False
                self.mask |= bit
                self.size += 1
                return True
            d_h = -self.delta + self.penalty * conflicts
            if d_h <= 0 or r_acc < math.exp(-beta * d_h):
                self.mask |= bit
                self.size += 1
                self.violations += conflicts
                return True
            return False
        if not self.dir_edges:
            return False
        u, v = self.dir_edges[int(r_pick * len(self.dir_edges))]
        ubit, vbit = 1 << u, 1 << v
        if not (self.mask & ubit) or (self.mask & vbit):
            return False
        without = self.mask ^ ubit
        if self.mode == "restricted":
            if self.adj[v] & without:
                return False
            self.mask = without | vbit
            return True
        old_conf = bin(self.adj[u] & without).count("1")
        new_conf = bin(self.adj[v] & without).count("1")
        d_h = self.penalty * (new_conf - old_conf)
        if d_h <= 0 or r_acc < math.exp(-beta * d_h):
            self.mask = without | vbit
            self.violations += new_conf - old_conf
            return True
        return False


def _p_flip(config):
    return config.flip_weight / (config.flip_weight + config.exchange_weight)


def scalar_sa_run(graph, config, alpha, stop_at_hit=False, trial=0):
    p_flip = _p_flip(config)
    chain = ScalarChain(graph, config.mode, config.penalty, 1.0)
    u01 = ScalarUniforms(config.seed, trial)
    n = max(graph.n, 1)
    histogram = {} if config.record_histogram else None
    trace = [] if config.trace_stride else None
    acceptance = {}
    best_mask, best_size = 0, 0
    first_hit = None
    proposals = 0
    sweeps_done = 0
    stopped = False
    for beta in config.betas:
        accepted = 0
        attempted = 0
        for _ in range(config.sweeps_per_beta):
            for _ in range(n):
                accepted += chain.propose(u01, p_flip, beta)
                attempted += 1
                proposals += 1
                size = chain.size if config.mode == "restricted" else (
                    chain.size if chain.violations == 0 else -1)
                if size > best_size:
                    best_mask, best_size = chain.mask, size
                if first_hit is None and size >= alpha:
                    first_hit = proposals / n
                    stopped = stop_at_hit
                    if stopped:
                        break
            if stopped:
                break
            sweeps_done += 1
            if histogram is not None:
                histogram[chain.mask] = histogram.get(chain.mask, 0) + 1
            if trace is not None and sweeps_done % config.trace_stride == 0:
                trace.append((sweeps_done, chain.energy()))
        acceptance[beta] = accepted / max(attempted, 1)
        if stopped:
            break
    return dict(best_mask=best_mask, best_size=best_size,
                first_hit_sweep=first_hit, sweeps=sweeps_done,
                acceptance=acceptance, histogram=histogram, trace=trace)


def scalar_pt_run(graph, config, alpha, trial=0):
    p_flip = _p_flip(config)
    m_rep = len(config.betas)
    chains = [ScalarChain(graph, config.mode, config.penalty, 1.0)
              for _ in range(m_rep)]
    u01 = ScalarUniforms(config.seed, trial)
    n = max(graph.n, 1)
    adj = graph.adjacency()
    histograms = [dict() for _ in range(m_rep)] if config.record_histogram else None
    acceptance = {}
    swap_attempts = swap_accepts = 0
    iso_attempts = iso_accepts = 0
    local_acc = [0] * m_rep
    local_att = [0] * m_rep
    best_mask, best_size = 0, 0
    first_hit = None
    proposals = 0
    for sweep in range(config.sweeps):
        for i, chain in enumerate(chains):
            beta = config.betas[i]
            for _ in range(n):
                local_acc[i] += chain.propose(u01, p_flip, beta)
                local_att[i] += 1
            proposals += n
            size = chain.size if config.mode == "restricted" or \
                chain.violations == 0 else -1
            if size > best_size:
                best_mask, best_size = chain.mask, size
            if first_hit is None and size >= alpha:
                first_hit = proposals / (n * m_rep)
        if histograms is not None:
            for i, chain in enumerate(chains):
                histograms[i][chain.mask] = histograms[i].get(chain.mask, 0) + 1
        if config.swap_every and (sweep + 1) % config.swap_every == 0:
            for i in range(m_rep - 1):
                swap_attempts += 1
                bi, bj = config.betas[i], config.betas[i + 1]
                ei, ej = chains[i].energy(), chains[i + 1].energy()
                log_acc = (bi - bj) * (ei - ej)
                if log_acc >= 0 or u01() < math.exp(log_acc):
                    swap_accepts += 1
                    chains[i], chains[i + 1] = chains[i + 1], chains[i]
            if config.isoenergetic and m_rep >= 2:
                iso_attempts += 1
                pair = int(u01() * (m_rep - 1))
                ci, cj = chains[pair], chains[pair + 1]
                comps = _scalar_components(ci.mask ^ cj.mask, adj)
                if comps:
                    cluster = comps[int(u01() * len(comps))]
                    di = bin(ci.mask & cluster).count("1")
                    dj = bin(cj.mask & cluster).count("1")
                    bi, bj = config.betas[pair], config.betas[pair + 1]
                    new_i = (ci.mask & ~cluster) | (cj.mask & cluster)
                    new_j = (cj.mask & ~cluster) | (ci.mask & cluster)
                    if config.mode == "penalty":
                        # the pair's energy is conserved, so the move is
                        # accepted on the first replica's energy change
                        vi, vj = (_scalar_violations(m, adj)
                                  for m in (new_i, new_j))
                        d_h_i = (-ci.delta * (ci.size + dj - di)
                                 + ci.penalty * vi) - ci.energy()
                    else:
                        vi = vj = 0
                        d_h_i = -ci.delta * (dj - di)
                    log_acc = -(bi - bj) * d_h_i
                    if log_acc >= 0 or u01() < math.exp(log_acc):
                        iso_accepts += 1
                        ci.mask, cj.mask = new_i, new_j
                        ci.size += dj - di
                        cj.size += di - dj
                        ci.violations, cj.violations = vi, vj
    for i, beta in enumerate(config.betas):
        acceptance[f"local_beta_{beta:g}"] = local_acc[i] / max(local_att[i], 1)
    acceptance["replica_exchange"] = swap_accepts / max(swap_attempts, 1)
    if config.isoenergetic:
        acceptance["isoenergetic"] = iso_accepts / max(iso_attempts, 1)
    return dict(best_mask=best_mask, best_size=best_size,
                first_hit_sweep=first_hit, sweeps=config.sweeps,
                acceptance=acceptance, replica_histograms=histograms)


# Reference worldline chain: qmc.qmc_run, resample_vertex_line and
# _segment_delta as they were before the heat bath read memoized transfer
# blocks, run on the same engine tables and Philox stream.  qmc_run must
# match it draw for draw.

def _scalar_resample_vertex_line(engine, state, v, u01):
    m = len(state)
    bond = engine.bond_rows
    diag = engine.diag_list
    flip_rows = engine.flip_rows
    basis = engine.basis
    bit = 1 << v
    opt0 = [0] * m
    opt1 = [0] * m
    for i, s in enumerate(state):
        if basis[s] & bit:
            opt1[i] = s
            opt0[i] = flip_rows[s][v]
        else:
            opt0[i] = s
            opt1[i] = flip_rows[s][v]
    # per-bond 2x2 transfer entries, normalized by their max
    t00 = [0.0] * m
    t01 = [0.0] * m
    t10 = [0.0] * m
    t11 = [0.0] * m
    for i in range(m):
        j = (i + 1) % m
        a0, a1 = opt0[i], opt1[i]
        b0, b1 = opt0[j], opt1[j]
        row0 = bond[a0]
        w00 = row0[b0] * diag[b0]
        w01 = row0[b1] * diag[b1] if b1 >= 0 else 0.0
        if a1 >= 0:
            row1 = bond[a1]
            w10 = row1[b0] * diag[b0]
            w11 = row1[b1] * diag[b1] if b1 >= 0 else 0.0
        else:
            w10 = w11 = 0.0
        peak = max(w00, w01, w10, w11)
        if peak <= 0.0:
            raise ValueError("vertex line has no admissible timeline")
        t00[i], t01[i] = w00 / peak, w01 / peak
        t10[i], t11[i] = w10 / peak, w11 / peak
    # suffix products S[k] = T_k ... T_{m-1}, normalized per step
    s00 = [0.0] * (m + 1)
    s01 = [0.0] * (m + 1)
    s10 = [0.0] * (m + 1)
    s11 = [0.0] * (m + 1)
    s00[m] = s11[m] = 1.0
    for k in range(m - 1, -1, -1):
        a, b, c, d = t00[k], t01[k], t10[k], t11[k]
        e, f, g, h = s00[k + 1], s01[k + 1], s10[k + 1], s11[k + 1]
        p00 = a * e + b * g
        p01 = a * f + b * h
        p10 = c * e + d * g
        p11 = c * f + d * h
        peak = max(p00, p01, p10, p11)
        inv = 1.0 / peak if peak > 0.0 else 1.0
        s00[k], s01[k] = p00 * inv, p01 * inv
        s10[k], s11[k] = p10 * inv, p11 * inv
    total = s00[0] + s11[0]
    if total <= 0.0:
        raise ValueError("vertex line has no admissible timeline")
    draws = u01.take(m)
    x0 = 0 if draws[0] * total < s00[0] else 1
    prev = x0
    out = [0] * m
    out[0] = opt0[0] if x0 == 0 else opt1[0]
    for k in range(1, m):
        if prev == 0:
            w0 = t00[k - 1] * (s00[k] if x0 == 0 else s01[k])
            w1 = t01[k - 1] * (s10[k] if x0 == 0 else s11[k])
        else:
            w0 = t10[k - 1] * (s00[k] if x0 == 0 else s01[k])
            w1 = t11[k - 1] * (s10[k] if x0 == 0 else s11[k])
        total = w0 + w1
        if total <= 0.0:
            raise ValueError("conditional timeline weight vanished")
        prev = 0 if draws[k] * total < w0 else 1
        out[k] = opt0[k] if prev == 0 else opt1[k]
    return out


def _scalar_segment_delta(state, flipped_slots, proposal, log_bond, log_diag,
                          m):
    d_log = 0.0
    touched_bonds = set()
    for s in flipped_slots:
        touched_bonds.add((s - 1) % m)
        touched_bonds.add(s)
    for i in touched_bonds:
        j = (i + 1) % m
        old_i, old_j = state[i], state[j]
        new_i = proposal.get(i, old_i)
        new_j = proposal.get(j, old_j)
        d_log += log_bond[new_i][new_j] - log_bond[old_i][old_j]
    for s in flipped_slots:
        d_log += log_diag[proposal[s]] - log_diag[state[s]]
    return d_log


def scalar_qmc_run(graph, config):
    from flatscape.classical_mc import _stream, _Uniforms
    from flatscape.qmc import WorldlineEngine

    engine = WorldlineEngine(graph, config)
    m = config.slices
    n = max(graph.n, 1)
    state = [engine.index[0]] * m
    log_bond = engine.log_bond_rows
    log_diag = engine.log_diag_list
    flip_rows = engine.flip_rows
    u01 = _Uniforms(_stream(config.seed, 0))
    draw = iter(u01).__next__
    marginal = {}
    site_acc = site_att = seg_acc = seg_att = 0
    for sweep in range(config.sweeps):
        for _ in range(m * n):
            site_att += 1
            s = int(draw() * m)
            v = int(draw() * n)
            cur = state[s]
            new = flip_rows[cur][v]
            if new < 0:
                continue
            prev = state[s - 1 if s else m - 1]
            nxt = state[s + 1 if s < m - 1 else 0]
            d_log = (log_bond[prev][new] + log_bond[new][nxt]
                     + log_diag[new]
                     - log_bond[prev][cur] - log_bond[cur][nxt]
                     - log_diag[cur])
            if d_log >= 0 or draw() < math.exp(d_log):
                state[s] = new
                site_acc += 1
        for _ in range(n):
            seg_att += 1
            v = int(draw() * n)
            start = int(draw() * m)
            length = 1 + int(draw() * m)
            slots = [(start + j) % m for j in range(length)]
            proposal = {}
            valid = True
            for s in slots:
                j = flip_rows[state[s]][v]
                if j < 0:
                    valid = False
                    break
                proposal[s] = j
            if not valid:
                continue
            d_log = _scalar_segment_delta(state, set(slots), proposal,
                                          log_bond, log_diag, m)
            if d_log >= 0 or draw() < math.exp(d_log):
                for s, j in proposal.items():
                    state[s] = j
                seg_acc += 1
        for v in range(n):
            state = _scalar_resample_vertex_line(engine, state, v, u01)
        if sweep >= config.burn_in:
            for s in state:
                z = engine.basis[s]
                marginal[z] = marginal.get(z, 0) + 1
    return dict(marginal=marginal,
                acceptance={"site": site_acc / max(site_att, 1),
                            "segment": seg_acc / max(seg_att, 1)})
