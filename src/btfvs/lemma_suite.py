"""Executable verification campaigns for every structural claim the solvers
rely on.

Each check runs a seeded campaign over generated instances and reports
pass/fail with a replayable counterexample (canonical JSON) on failure.
The block-monotonicity check is flagged as empirical: the claim is
exercised by campaign rather than carried by a proof, so a counterexample
there is a reportable finding rather than a build failure.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from itertools import product

from . import reference
from .errors import FamilyCapExceeded, PreconditionViolated
from .generators import GenKind, GenSpec, SplitMix64, generate
from .graph import BipartiteTournament
from .io import serialize_instance
from .msequence import (BackEdgeKind, back_edges, classify, is_m_consistent,
                        is_refinement, m_sequence)
from .pipeline import (CfvsInstance, ConstantsProfile, derive_forced_p,
                       find_decoupling, is_low_block_degree, is_m_homogeneous,
                       is_matched, is_regular, is_weakly_coupled,
                       matched_branching, pipeline_solve, run_cascade,
                       seed_instances, stage_lowblockdegree, stage_matched,
                       stage_regular, stage_weak)
from .samplespace import twise_space, twise_space_size
from .solvers import (ORACLE_DEFAULT_CAP, Constraints, approx4, branch_solve,
                      exact_min_fvs, oracle_min_fvs, reduce_instance, verify_fvs)
from .structure import (canonical_sequence, find_square, is_acyclic,
                        is_topological)


@dataclass
class SuiteConfig:
    """Campaign sizes and knobs; defaults match the acceptance thresholds."""

    seed: int = 20240601
    exhaustive_side: int = 3      # all orientations with m, n up to this
    random_trials: int = 1000     # seeded instances for the equivalence sweep
    structure_trials: int = 1000  # acyclic instances for layering/refinement
    classify_trials: int = 1000   # M-consistent pairs for classification
    solver_trials: int = 500     # oracle-vs-solver comparisons
    long_back_trials: int = 200
    reduction_trials: int = 300
    monotonicity_trials: int = 500
    backward_trials: int = 200
    end_to_end_trials: int = 200
    dfvc_trials: int = 200
    forward_trials: int = 40
    max_side: int = 8
    small_side: int = 5
    oracle_cap: int = ORACLE_DEFAULT_CAP
    profile: ConstantsProfile = field(default_factory=ConstantsProfile.toy)

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            want = ConstantsProfile if f.name == "profile" else int
            if not isinstance(val, want) or isinstance(val, bool):
                raise ValueError(f"config field {f.name} must be {want.__name__}, got {val!r}")
            if want is int and f.name != "seed" and val < 0:
                raise ValueError(f"config field {f.name} must be non-negative, got {val!r}")

    @classmethod
    def from_mapping(cls, data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise ValueError("a suite config must be a JSON object")
        kwargs = {}
        names = {f.name for f in fields(cls)}
        for key, val in data.items():
            if key == "profile":
                val = ConstantsProfile.from_mapping(val)
            elif key not in names:
                raise ValueError(f"unknown config field {key!r}")
            kwargs[key] = val
        return cls(**kwargs)

    def quick(self) -> "SuiteConfig":
        """Scaled-down copy for smoke runs."""
        small = SuiteConfig(seed=self.seed, profile=self.profile)
        for f in fields(SuiteConfig):
            if f.name.endswith("_trials"):
                setattr(small, f.name, max(20, getattr(self, f.name) // 10))
        return small


@dataclass
class PropertyResult:
    name: str
    passed: bool
    checked: int
    note: str = ""
    counterexample: str | None = None


@dataclass
class SuiteReport:
    results: list[PropertyResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> str:
        return json.dumps({
            "all_passed": self.all_passed,
            "results": [asdict(r) for r in self.results],
        }, indent=2) + "\n"


def _ce(T: BipartiteTournament, **context) -> str:
    payload = {"instance": json.loads(serialize_instance(T))}
    payload.update(context)
    return json.dumps(payload, sort_keys=True, default=str)


def _all_orientations(m: int, n: int):
    for bits in product([False, True], repeat=m * n):
        yield BipartiteTournament(m, n, [list(bits[i * n:(i + 1) * n])
                                         for i in range(m)])


def _random_instance(rng: SplitMix64, max_side: int, kinds=(GenKind.UNIFORM_RANDOM,),
                     min_side: int = 1) -> BipartiteTournament:
    kind = kinds[rng.below(len(kinds))]
    m = min_side + rng.below(max_side - min_side + 1)
    n = min_side + rng.below(max_side - min_side + 1)
    return generate(GenSpec(m, n, kind, seed=rng.next_u64() >> 1,
                            k_plant=min(3, m + n),
                            twin_a=1 + rng.below(3), twin_b=1 + rng.below(3)))


def _m_consistent_pair(rng: SplitMix64, max_side: int):
    T0 = _random_instance(rng, max_side)
    H = exact_min_fvs(T0)
    rest = sorted(set(T0.vertices()) - H)
    if not rest:
        return None
    M0 = set(rng.sample(rest, 1 + rng.below(len(rest))))
    bad = {v for v in T0.vertices() if v not in M0 and not is_acyclic(T0, M0 | {v})}
    sub = T0.remove(bad)
    return sub.tournament, frozenset(sub.from_host[v] for v in M0)


def _chain_with_satellites(rng: SplitMix64, min_layers: int = 4,
                           max_layers: int = 6, max_satellites: int = 4):
    """An undeletable alternating chain plus satellites that copy a chain
    layer's neighborhoods.  Arcs between two satellites are free, so
    backward ones become back edges of every gap; the pair stays consistent
    because any single added vertex slots into the chain order."""
    layers = min_layers + rng.below(max_layers - min_layers + 1)
    sats = [rng.below(layers) for _ in range(1 + rng.below(max_satellites))]
    members = [("c", t) for t in range(layers)] + \
              [("s", t) for t in sats]
    a_ids = [x for x in members if x[1] % 2 == 0]
    b_ids = [x for x in members if x[1] % 2 == 1]
    layer_of_a = {i: x[1] for i, x in enumerate(a_ids)}
    layer_of_b = {j: x[1] for j, x in enumerate(b_ids)}
    kind_a = {i: x[0] for i, x in enumerate(a_ids)}
    kind_b = {j: x[0] for j, x in enumerate(b_ids)}
    orient = []
    for i in range(len(a_ids)):
        row = []
        for j in range(len(b_ids)):
            ta, tb = layer_of_a[i], layer_of_b[j]
            if kind_a[i] == "s" and kind_b[j] == "s":
                row.append(rng.coin())
            else:
                row.append(ta < tb)
        orient.append(row)
    T = BipartiteTournament(len(a_ids), len(b_ids), orient)
    M = frozenset([v for v in T.a_vertices() if kind_a[v.index] == "c"]
                  + [v for v in T.b_vertices() if kind_b[v.index] == "c"])
    return T, M


# --------------------------------------------------------------------------
# individual checks


def check_square_cycle_equivalence(config: SuiteConfig, acyclic_fn=None) -> PropertyResult:
    """Square-freeness coincides with acyclicity, exhaustively on small
    sides and on seeded instances; the peeling route, the square scan, and
    a DFS oracle must all agree.  ``acyclic_fn`` is injectable so fault
    seeding can demonstrate the check bites."""
    fn = acyclic_fn or is_acyclic
    checked = 0
    for m in range(config.exhaustive_side + 1):
        for n in range(config.exhaustive_side + 1):
            for T in _all_orientations(m, n):
                checked += 1
                square_free = find_square(T) is None
                if fn(T) != square_free or fn(T) == reference.dfs_has_cycle(T):
                    return PropertyResult("square_cycle_equivalence", False, checked,
                                          counterexample=_ce(T))
    rng = SplitMix64(config.seed)
    for _ in range(config.random_trials):
        T = _random_instance(rng, config.max_side)
        checked += 1
        square_free = find_square(T) is None
        if fn(T) != square_free or fn(T) == reference.dfs_has_cycle(T):
            return PropertyResult("square_cycle_equivalence", False, checked,
                                  counterexample=_ce(T))
    return PropertyResult("square_cycle_equivalence", True, checked)


def check_canonical_layering(config: SuiteConfig) -> PropertyResult:
    """Layer partition, forward arcs, alternating sides, and flattened
    topological order on generated acyclic instances."""
    rng = SplitMix64(config.seed + 1)
    checked = 0
    for _ in range(config.structure_trials):
        T = _random_instance(rng, config.max_side, kinds=(GenKind.ACYCLIC,))
        checked += 1
        seq = canonical_sequence(T)
        union: set = set()
        total = 0
        ok = True
        for i, layer in enumerate(seq):
            union |= layer
            total += len(layer)
            sides = {v.side for v in layer}
            ok &= len(sides) == 1 and bool(layer)
            if i + 1 < len(seq):
                ok &= sides != {v.side for v in seq.sets[i + 1]}
        idx = {v: i for i, layer in enumerate(seq) for v in layer}
        ok &= union == set(T.vertices()) and total == T.num_vertices
        ok &= all(idx[u] < idx[w] for (u, w) in T.arcs())
        order = [v for layer in seq for v in sorted(layer)]
        ok &= is_topological(T, order)
        if not ok:
            return PropertyResult("canonical_layering", False, checked,
                                  counterexample=_ce(T))
    return PropertyResult("canonical_layering", True, checked)


def check_refinement(config: SuiteConfig) -> PropertyResult:
    """The canonical layering refines the block partition for any nonempty
    undeletable set on acyclic instances."""
    rng = SplitMix64(config.seed + 2)
    checked = 0
    for _ in range(config.structure_trials):
        T = _random_instance(rng, config.max_side, kinds=(GenKind.ACYCLIC,))
        vs = T.vertices()
        if not vs:
            continue
        M = {v for v in vs if rng.coin()} or {vs[0]}
        checked += 1
        seq = m_sequence(T, M)
        if not is_refinement(list(canonical_sequence(T)), seq.flatten()):
            return PropertyResult("refinement", False, checked,
                                  counterexample=_ce(T, m_set=sorted(map(str, M))))
    return PropertyResult("refinement", True, checked)


def check_classification(config: SuiteConfig) -> PropertyResult:
    """Totality and uniqueness against the per-definition brute classifier."""
    rng = SplitMix64(config.seed + 3)
    pairs = 0
    checked = 0
    while pairs < config.classify_trials:
        pair = _m_consistent_pair(rng, config.small_side)
        if pair is None:
            continue
        pairs += 1
        T, M = pair
        for v in T.vertices():
            checked += 1
            tags = reference.classify_brute(T, M, v)
            mine = classify(T, M, v)
            if len(tags) != 1 or tags[0] != mine:
                return PropertyResult("classification_totality", False, checked,
                                      counterexample=_ce(T, m_set=sorted(map(str, M)),
                                                         vertex=str(v)))
    return PropertyResult("classification_totality", True, checked)


def check_insertion_and_adjustment(config: SuiteConfig) -> PropertyResult:
    """Conflicting vertices split exactly their layer; removing a vertex
    from an instance shifts the block partition by that vertex alone."""
    rng = SplitMix64(config.seed + 4)
    pairs = 0
    checked = 0
    while pairs < max(60, config.classify_trials // 8):
        pair = _m_consistent_pair(rng, config.small_side)
        if pair is None:
            continue
        pairs += 1
        T, M = pair
        sub = T.induced(M)
        canon = [frozenset(sub.to_host[u] for u in layer)
                 for layer in canonical_sequence(sub.tournament)]
        for v in T.vertices():
            c = classify(T, M, v)
            if c.kind.value == "conflicting":
                checked += 1
                ext = T.induced(M | {v})
                got = [frozenset(ext.to_host[u] for u in layer)
                       for layer in canonical_sequence(ext.tournament)]
                i = c.block
                ok = (len(got) == len(canon) + 2
                      and got[:i] == canon[:i]
                      and got[i + 1] == frozenset({v})
                      and got[i] and got[i + 2]
                      and got[i] | got[i + 2] == canon[i]
                      and got[i + 3:] == canon[i + 1:])
                if not ok:
                    return PropertyResult("insertion_and_adjustment", False, checked,
                                          counterexample=_ce(T, vertex=str(v)))
        seq_big = m_sequence(T, M)
        for v in sorted(set(T.vertices()) - M):
            checked += 1
            sub2 = T.remove({v})
            m_small = frozenset(sub2.from_host[u] for u in M)
            seq_small = m_sequence(sub2.tournament, m_small)
            small = [(frozenset(sub2.to_host[u] for u in x),
                      frozenset(sub2.to_host[u] for u in y))
                     for (x, y) in seq_small.blocks]
            diffs = []
            for (xs, ys), (xb, yb) in zip(small, seq_big.blocks):
                if xs != xb:
                    diffs.append(xb - xs)
                if ys != yb:
                    diffs.append(yb - ys)
            if len(small) != len(seq_big.blocks) or diffs != [{v}]:
                return PropertyResult("insertion_and_adjustment", False, checked,
                                      counterexample=_ce(T, vertex=str(v)))
    return PropertyResult("insertion_and_adjustment", True, checked)


def check_monotonicity(config: SuiteConfig) -> PropertyResult:
    """Blockwise containment of the structure of T - H inside that of T - P
    for a solution H, undeletable M inside T - H, and forced P inside H.
    Empirical: verified by campaign, not carried by a proof."""
    rng = SplitMix64(config.seed + 5)
    checked = 0
    note = "empirical (verified by campaign, not carried by a proof)"
    while checked < config.monotonicity_trials:
        T = _random_instance(rng, config.small_side + 1)
        H = exact_min_fvs(T)
        rest = sorted(set(T.vertices()) - H)
        if not rest or not H:
            continue
        M = frozenset(rng.sample(rest, 1 + rng.below(len(rest))))
        P = frozenset(v for v in H if rng.coin())
        live_p = T.remove(P)
        m_in_p = frozenset(live_p.from_host[v] for v in M)
        ok_p, _ = is_m_consistent(live_p.tournament, m_in_p)
        if not ok_p:
            continue
        checked += 1
        live_h = T.remove(H)
        m_in_h = frozenset(live_h.from_host[v] for v in M)
        seq_h = m_sequence(live_h.tournament, m_in_h)
        seq_p = m_sequence(live_p.tournament, m_in_p)
        blocks_h = [(frozenset(live_h.to_host[u] for u in x),
                     frozenset(live_h.to_host[u] for u in y))
                    for (x, y) in seq_h.blocks]
        blocks_p = [(frozenset(live_p.to_host[u] for u in x),
                     frozenset(live_p.to_host[u] for u in y))
                    for (x, y) in seq_p.blocks]
        if len(blocks_h) != len(blocks_p) or not all(
                xh <= xp and yh <= yp
                for (xh, yh), (xp, yp) in zip(blocks_h, blocks_p)):
            return PropertyResult(
                "block_monotonicity", False, checked, note=note,
                counterexample=_ce(T, h_set=sorted(map(str, H)),
                                   m_set=sorted(map(str, M)),
                                   p_set=sorted(map(str, P))))
    return PropertyResult("block_monotonicity", True, checked, note=note)


def check_long_back_edges(config: SuiteConfig) -> PropertyResult:
    """Every solution avoiding M hits every long back edge (checked by
    enumerating all avoiding solutions on small instances).

    Random pairs rarely produce long back edges, so half the campaign uses
    chain-with-satellites constructions where they are common.
    """
    rng = SplitMix64(config.seed + 6)
    checked = 0
    with_longs = 0
    while checked < config.long_back_trials:
        if checked % 2 == 0:
            pair = _m_consistent_pair(rng, 4)
        else:
            pair = _chain_with_satellites(rng, min_layers=5, max_layers=7,
                                          max_satellites=6)
        if pair is None:
            continue
        T, M = pair
        if T.num_vertices - len(M) > 9:
            continue
        checked += 1
        seq = m_sequence(T, M)
        longs = [e for e in back_edges(T, seq) if e.kind is BackEdgeKind.LONG]
        if not longs:
            continue
        with_longs += 1
        for H in reference.enumerate_fvs_avoiding(T, M):
            for e in longs:
                if e.tail not in H and e.head not in H:
                    return PropertyResult(
                        "long_back_edge_coverage", False, checked,
                        counterexample=_ce(T, m_set=sorted(map(str, M)),
                                           edge=f"{e.tail}->{e.head}",
                                           solution=sorted(map(str, H))))
    return PropertyResult("long_back_edge_coverage", True, checked,
                          note=f"{with_longs} instances carried long back edges")


def _random_constraints(T: BipartiteTournament, rng: SplitMix64) -> Constraints:
    forbidden: set = set()
    required: set = set()
    for v in sorted(T.vertices()):
        r = rng.below(10)
        if r == 0:
            forbidden.add(v)
        elif r == 1:
            required.add(v)
    arcs = T.arcs()
    cover = {arcs[rng.below(len(arcs))] for _ in range(rng.below(3))} if arcs else set()
    return Constraints(frozenset(forbidden), frozenset(required),
                       frozenset(cover), budget=rng.below(6))


def check_solver_agreement(config: SuiteConfig) -> PropertyResult:
    """Branching and exact solvers agree with the exhaustive oracle, with
    and without random constraints."""
    rng = SplitMix64(config.seed + 7)
    checked = 0
    for trial in range(config.solver_trials):
        T = _random_instance(rng, config.max_side)
        checked += 1
        if trial % 2 == 0:
            opt = len(oracle_min_fvs(T, cap=config.oracle_cap).solution)
            ok = len(exact_min_fvs(T)) == opt
            ok &= branch_solve(T, Constraints(budget=opt)).found
            ok &= opt == 0 or not branch_solve(T, Constraints(budget=opt - 1)).found
            if not ok:
                return PropertyResult("solver_oracle_agreement", False, checked,
                                      counterexample=_ce(T))
        else:
            cons = _random_constraints(T, rng)
            want = oracle_min_fvs(T, cons, cap=config.oracle_cap)
            got = branch_solve(T, cons)
            if want.status is not got.status:
                return PropertyResult("solver_oracle_agreement", False, checked,
                                      counterexample=_ce(T, constraints=str(cons)))
    return PropertyResult("solver_oracle_agreement", True, checked)


def check_approx_ratio(config: SuiteConfig) -> PropertyResult:
    """Greedy square deletion stays a valid solution within four times the
    optimum; the lone-square instance realizes the ratio exactly."""
    square = BipartiteTournament(2, 2, [[True, False], [False, True]])
    out = approx4(square, 1)
    checked = 1
    if out is None or len(out) != 4 or len(oracle_min_fvs(square).solution) != 1:
        return PropertyResult("approximation_ratio", False, checked,
                              counterexample=_ce(square))
    rng = SplitMix64(config.seed + 8)
    for _ in range(config.solver_trials):
        T = _random_instance(rng, config.max_side)
        checked += 1
        opt = len(oracle_min_fvs(T, cap=config.oracle_cap).solution)
        out = approx4(T, T.num_vertices)
        if out is None or not verify_fvs(T, out) or len(out) > 4 * opt:
            return PropertyResult("approximation_ratio", False, checked,
                                  counterexample=_ce(T))
    return PropertyResult("approximation_ratio", True, checked)


def check_reduction_safety(config: SuiteConfig) -> PropertyResult:
    """Budget answers agree before and after the reduction rules, twin-heavy
    corpora included."""
    rng = SplitMix64(config.seed + 9)
    checked = 0
    kinds = (GenKind.UNIFORM_RANDOM, GenKind.TWIN_HEAVY, GenKind.PLANTED_FVS)
    for _ in range(config.reduction_trials):
        T = _random_instance(rng, config.max_side, kinds=kinds, min_side=2)
        k = rng.below(4)
        checked += 1
        red = reduce_instance(T, k)
        before = oracle_min_fvs(T, Constraints(budget=k), cap=config.oracle_cap).found
        after = oracle_min_fvs(red.tournament, Constraints(budget=k),
                               cap=config.oracle_cap).found
        if before != after:
            return PropertyResult("reduction_safety", False, checked,
                                  counterexample=_ce(T, k=k))
    return PropertyResult("reduction_safety", True, checked)


def check_sample_space(config: SuiteConfig) -> PropertyResult:
    """Exhaustive frequency counts hit exactly q^-t for every position tuple
    and value tuple on the small grid, and sizes match the field-power
    count."""
    checked = 0
    from itertools import combinations
    for q in (2, 3):
        for t in (1, 2):
            for n in range(1, 6):
                space = twise_space(n, t, q)
                checked += 1
                if len(space) != twise_space_size(n, t, q):
                    return PropertyResult("sample_space_uniformity", False, checked,
                                          counterexample=f"(n={n},t={t},q={q}) size")
                expect, rem = divmod(len(space), q ** t)
                if rem:
                    return PropertyResult("sample_space_uniformity", False, checked,
                                          counterexample=f"(n={n},t={t},q={q}) divisibility")
                for positions in combinations(range(n), t):
                    counts: dict = {}
                    for f in space.functions:
                        key = tuple(f[p] for p in positions)
                        counts[key] = counts.get(key, 0) + 1
                    for alpha in product(range(q), repeat=t):
                        if counts.get(alpha, 0) != expect:
                            return PropertyResult(
                                "sample_space_uniformity", False, checked,
                                counterexample=f"(n={n},t={t},q={q}) at {positions}:{alpha}")
    return PropertyResult("sample_space_uniformity", True, checked)


def _fib(n: int) -> int:
    x, y = 0, 1
    for _ in range(n):
        x, y = y, x + y
    return x


def check_fibonacci_bound(config: SuiteConfig) -> PropertyResult:
    """Conflict-graph branching leaves with s additions never exceed the
    (s+2)nd Fibonacci number, on stars, paths, and random edge sets."""
    from .graph import Vertex
    cases = []
    cases.append([(Vertex("A", 0), Vertex("B", j)) for j in range(6)])   # star
    path = []
    for i in range(10):                                                   # path
        a_i, b_i = Vertex("A", (i + 1) // 2), Vertex("B", i // 2)
        path.append((a_i, b_i))
    cases.append(path)
    rng = SplitMix64(config.seed + 10)
    for _ in range(30):
        T = _random_instance(rng, 6, min_side=3)
        arcs = T.arcs()
        cases.append(sorted({arcs[rng.below(len(arcs))]
                             for _ in range(min(20, len(arcs)))}))
    checked = 0
    for edges in cases:
        leaves = matched_branching(edges, budget=20)
        by_cost: dict = {}
        for added in leaves:
            by_cost[len(added)] = by_cost.get(len(added), 0) + 1
        for s, count in sorted(by_cost.items()):
            checked += 1
            if count > _fib(s + 2):
                return PropertyResult("fibonacci_leaf_bound", False, checked,
                                      counterexample=f"s={s} count={count} edges={edges}")
    return PropertyResult("fibonacci_leaf_bound", True, checked)


def _cfvs_oracle_solution(inst: CfvsInstance, cap: int):
    res = oracle_min_fvs(inst.T, inst.constraints(), cap=cap)
    return res.solution if res.found else None


def check_stage_backward(config: SuiteConfig) -> PropertyResult:
    """Unconditional soundness of every stage: a child solution lifts to a
    parent solution verbatim, and seed-stage solutions answer the plain
    question."""
    rng = SplitMix64(config.seed + 11)
    runs = 0
    checked = 0
    while runs < config.backward_trials:
        T = _random_instance(rng, 4, min_side=2)
        runs += 1
        k = 2 + rng.below(3)
        pairs: list = []

        def collect(stage, parent, children):
            if parent is None:
                pairs.extend(("seed", None, c) for c in children)
            else:
                pairs.extend((stage, parent, c) for c in children)

        run_cascade(T, k, config.profile, collect=collect)
        for stage, parent, child in pairs[:60]:
            sol = _cfvs_oracle_solution(child, config.oracle_cap)
            if sol is None:
                continue
            checked += 1
            if parent is None:
                ok = verify_fvs(T, sol) and len(sol) <= k
            else:
                ok = parent.is_solution(sol)
            if not ok:
                return PropertyResult(
                    "stage_backward_direction", False, checked,
                    counterexample=_ce(T, stage=stage,
                                       child_p=sorted(map(str, child.P)),
                                       solution=sorted(map(str, sol))))
    return PropertyResult("stage_backward_direction", True, checked)


def check_stage_forward_planted(config: SuiteConfig) -> PropertyResult:
    """Relative completeness at toy scale: when a planted instance has a
    window-homogeneous optimal solution H admitted by a seeded child, every
    stage keeps some child admitting H."""
    rng = SplitMix64(config.seed + 12)
    profile = config.profile
    checked = 0
    trials = 0
    while trials < config.forward_trials:
        trials += 1
        T = _random_instance(rng, 4, kinds=(GenKind.PLANTED_FVS,), min_side=2)
        H = frozenset(exact_min_fvs(T))
        k = len(H)
        if k == 0:
            continue
        try:
            seeds = seed_instances(T, k, profile)
        except FamilyCapExceeded:
            continue
        admitted = [s for s in seeds
                    if s.is_solution(H) and is_m_homogeneous(T, s.M, H, profile.hom_window)]
        if not admitted:
            continue
        current = admitted[0]
        for stage_fn in (stage_regular, stage_weak, stage_matched,
                         stage_lowblockdegree):
            try:
                children = stage_fn(current, profile)
            except (FamilyCapExceeded, PreconditionViolated):
                children = []
            keeping = [c for c in children if c.is_solution(H)]
            if not keeping:
                current = None
                break
            current = keeping[0]
        if current is None:
            continue  # lost to toy-profile filtering, not a soundness issue
        checked += 1
    note = f"{checked} planted solutions carried through all stages"
    return PropertyResult("stage_forward_planted", checked > 0,
                          checked, note=note)


def check_predicate_agreement(config: SuiteConfig) -> PropertyResult:
    """Production predicates against the definition-literal checkers built
    on the brute classifier."""
    rng = SplitMix64(config.seed + 13)
    profile = config.profile
    checked = 0
    insts: list[CfvsInstance] = []
    while len(insts) < 60:
        pair = _m_consistent_pair(rng, 4)
        if pair is None:
            continue
        T, M = pair
        P = derive_forced_p(T, M)
        base = CfvsInstance(T, M, P, frozenset(), 3)
        insts.append(base)
        # grow F/P variety via the early stages
        try:
            for child in stage_weak(base, profile)[:2]:
                insts.append(child)
                for grand in stage_matched(child, profile)[:2]:
                    insts.append(grand)
        except (FamilyCapExceeded, PreconditionViolated):
            pass
    for inst in insts:
        checked += 1
        pairs = [
            ("regular", is_regular(inst, profile), reference.regular_ref(inst, profile)),
            ("matched", is_matched(inst), reference.matched_ref(inst)),
            ("weakly_coupled", is_weakly_coupled(inst, profile),
             reference.weakly_coupled_ref(inst, profile)),
            ("low_block_degree", is_low_block_degree(inst, profile),
             reference.low_block_degree_ref(inst, profile)),
            ("decoupled", find_decoupling(inst, profile) is not None,
             reference.decoupled_ref(inst, profile)),
        ]
        for name, got, want in pairs:
            if got != want:
                return PropertyResult(
                    "predicate_checker_agreement", False, checked,
                    counterexample=_ce(inst.T, predicate=name,
                                       m_set=sorted(map(str, inst.M)),
                                       p_set=sorted(map(str, inst.P)),
                                       f_edges=sorted(map(str, inst.F))))
    return PropertyResult("predicate_checker_agreement", True, checked)


def check_dfvc(config: SuiteConfig) -> PropertyResult:
    """Mixed-multigraph solver against the subset-enumeration oracle."""
    from .dfvc import DfvcInstance, dfvc_solve, verify_dfvc
    from .graph import MixedMultigraph
    rng = SplitMix64(config.seed + 14)
    checked = 0
    while checked < config.dfvc_trials:
        nparts = 2 + rng.below(2)
        parts = [generate(GenSpec(1 + rng.below(2), 1 + rng.below(2),
                                  GenKind.UNIFORM_RANDOM, seed=rng.next_u64() >> 1))
                 for _ in range(nparts)]
        used: set = set()
        edges = []
        for _ in range(rng.below(4)):
            pi, pj = rng.below(nparts), rng.below(nparts)
            if pi == pj:
                continue
            u = parts[pi].vertices()[rng.below(parts[pi].num_vertices)]
            w = parts[pj].vertices()[rng.below(parts[pj].num_vertices)]
            if (pi, u) in used or (pj, w) in used:
                continue
            used.update({(pi, u), (pj, w)})
            edges.append(((pi, u), (pj, w)))
        g = MixedMultigraph(parts, edges)
        if g.num_vertices > 12:
            continue
        forbidden = frozenset(gv for gv in g.vertices() if rng.below(8) == 0)
        inst = DfvcInstance(g, forbidden, rng.below(5))
        checked += 1
        want_size, _ = reference.dfvc_oracle(g, set(forbidden), inst.budget)
        got = dfvc_solve(inst)
        ok = (want_size is None and not got.found) or \
            (want_size is not None and got.found and len(got.solution) == want_size
             and verify_dfvc(inst, got.solution))
        if not ok:
            return PropertyResult("dfvc_oracle_agreement", False, checked,
                                  counterexample=f"seed-instance {checked}")
    return PropertyResult("dfvc_oracle_agreement", True, checked)


def check_generators(config: SuiteConfig) -> PropertyResult:
    """Determinism (bit-identical regeneration), planted optimum bounds,
    and acyclicity of acyclic-kind output."""
    rng = SplitMix64(config.seed + 15)
    checked = 0
    for _ in range(100):
        spec = GenSpec(m=1 + rng.below(6), n=1 + rng.below(6),
                       kind=(GenKind.UNIFORM_RANDOM, GenKind.ACYCLIC,
                             GenKind.PLANTED_FVS, GenKind.TWIN_HEAVY)[rng.below(4)],
                       seed=rng.next_u64() >> 1, k_plant=rng.below(4),
                       twin_a=1 + rng.below(3), twin_b=1 + rng.below(3))
        checked += 1
        T1, T2 = generate(spec), generate(spec)
        if T1 != T2:
            return PropertyResult("generator_contracts", False, checked,
                                  counterexample=str(spec))
        if spec.kind is GenKind.ACYCLIC and not is_acyclic(T1):
            return PropertyResult("generator_contracts", False, checked,
                                  counterexample=str(spec))
        if spec.kind is GenKind.PLANTED_FVS:
            if len(exact_min_fvs(T1)) > spec.k_plant:
                return PropertyResult("generator_contracts", False, checked,
                                      counterexample=str(spec))
    return PropertyResult("generator_contracts", True, checked)


def check_pipeline_end_to_end(config: SuiteConfig) -> PropertyResult:
    """Cascade-plus-fallback answers match the oracle around the optimum."""
    rng = SplitMix64(config.seed + 16)
    checked = 0
    for _ in range(config.end_to_end_trials):
        T = _random_instance(rng, config.max_side, min_side=2)
        opt = len(oracle_min_fvs(T, cap=config.oracle_cap).solution)
        for k in (max(0, opt - 1), opt):
            checked += 1
            res = pipeline_solve(T, k, config.profile)
            want = k >= opt
            if res.found != want or (res.found and
                                     (len(res.solution) > k or not verify_fvs(T, res.solution))):
                return PropertyResult("pipeline_end_to_end", False, checked,
                                      counterexample=_ce(T, k=k, opt=opt))
    return PropertyResult("pipeline_end_to_end", True, checked)


ALL_CHECKS = (
    check_square_cycle_equivalence,
    check_canonical_layering,
    check_refinement,
    check_classification,
    check_insertion_and_adjustment,
    check_monotonicity,
    check_long_back_edges,
    check_solver_agreement,
    check_approx_ratio,
    check_reduction_safety,
    check_sample_space,
    check_fibonacci_bound,
    check_stage_backward,
    check_stage_forward_planted,
    check_predicate_agreement,
    check_dfvc,
    check_generators,
    check_pipeline_end_to_end,
)


def run_lemma_suite(config: SuiteConfig | None = None) -> SuiteReport:
    """Run every property campaign and collect the per-property outcomes."""
    config = config or SuiteConfig()
    return SuiteReport([check(config) for check in ALL_CHECKS])
