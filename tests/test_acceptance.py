"""Acceptance battery: one test and one printed pass/fail line per criterion.

Each criterion is exercised at its stated tolerance and runtime budget.
Oracles are independent of the code paths under test wherever the criterion
calls for one: Gram positive-definiteness for the finiteness catalogue, a
direct biregular recursion for ball sizes, and exhaustive enumeration for
terminal factors and infinity-largeness.
"""

import itertools
import json
import math
import random
import time

from denseamalgam import approx as approx_mod
from denseamalgam import characterize as char_mod
from denseamalgam import coxeter as cox
from denseamalgam.boundary import (
    Amalgam,
    Atom,
    CANTOR,
    EMPTY,
    POINT_PAIR,
    format_expr,
    normalize,
)
from denseamalgam.cli import main as cli_main
from denseamalgam.graphs_of_groups import (
    ball_counts,
    bass_serre_ball,
    from_json as gog_from_json,
    is_non_elementary,
)
from denseamalgam.metric import FiniteMetricSpace
from denseamalgam.simplicial import SimplicialComplex
from conftest import (
    clique_complex,
    gram_pd_test,
    random_complex,
    random_coxeter_matrix,
    random_expr,
    random_order_normalize,
)
from test_simplicial import maximal_irreducibles, random_order_factors

INF = math.inf

TWO = FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]])
TWO_B = FiniteMetricSpace(["u", "v"], [[0, 1], [1, 0]])
CIRCLE5 = FiniteMetricSpace(
    [f"c{i}" for i in range(5)],
    [[min(abs(i - j), 5 - abs(i - j)) for j in range(5)] for i in range(5)])


def _verdict(num, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {state}{suffix}")
    assert ok, f"criterion {num:02d} {name}: {state}{suffix}"


def test_criterion_01_normalizer_algebra():
    rng = random.Random(20260819)
    exprs = [random_expr(rng) for _ in range(10_000)]
    disconnected = [CANTOR, POINT_PAIR,
                    Atom("q", frozenset({"totally_disconnected"})),
                    Atom("p", frozenset({"two_point"}))]
    bad = 0
    t0 = time.monotonic()
    for i, e in enumerate(exprs):
        n = normalize(e)
        f = exprs[(i + 1) % len(exprs)]
        g = exprs[(i + 2) % len(exprs)]
        q = disconnected[i % len(disconnected)]
        ok = (
            normalize(n) == n
            and random_order_normalize(e, random.Random(i)) == n
            # merging and commutativity
            and normalize(Amalgam((e, f))) == normalize(Amalgam((f, e)))
            # associativity with idempotence
            and (normalize(Amalgam((e, Amalgam((f, g)))))
                 == normalize(Amalgam((e, f, g))))
            # duplicate absorption
            and normalize(Amalgam((e, f, f))) == normalize(Amalgam((e, f)))
            # totally disconnected summands are dropped
            and normalize(Amalgam((e, q))) == normalize(Amalgam((e,)))
            # an amalgam of only disconnected pieces is a Cantor set
            and normalize(Amalgam((q,))) == CANTOR
            # empty arguments are dropped; an emptied list gives Cantor
            and normalize(Amalgam((EMPTY, e))) == normalize(Amalgam((e,)))
            and normalize(Amalgam((EMPTY,))) == CANTOR
        )
        bad += not ok
    elapsed = time.monotonic() - t0
    _verdict(1, "normalizer-algebra", bad == 0 and elapsed < 5.0,
             f"{len(exprs)} expressions, {bad} violations, {elapsed:.2f}s")


def test_criterion_02_coxeter_finiteness():
    entries = (2, 3, 4, 5, 6, INF)
    disagreements = 0
    checked = 0
    t0 = time.monotonic()

    def check(names, matrix):
        nonlocal disagreements, checked
        c = cox.CoxeterSystem(names, matrix)
        if cox.is_finite_type(c) != gram_pd_test(c, tol=1e-9):
            disagreements += 1
        checked += 1

    check(["a"], [[1]])
    for m_ab in entries:
        check(["a", "b"], [[1, m_ab], [m_ab, 1]])
    for m_ab, m_ac, m_bc in itertools.product(entries, repeat=3):
        check(["a", "b", "c"], [[1, m_ab, m_ac],
                                [m_ab, 1, m_bc],
                                [m_ac, m_bc, 1]])
    rng = random.Random(4)
    for _ in range(10_000):
        check(list("abcd"), random_coxeter_matrix(rng, 4))
    elapsed = time.monotonic() - t0
    _verdict(2, "coxeter-finiteness",
             disagreements == 0 and elapsed < 30.0,
             f"{checked} systems, {disagreements} disagreements, "
             f"{elapsed:.2f}s")


def test_criterion_03_terminal_factors():
    rng = random.Random(11)
    mismatches = 0
    t0 = time.monotonic()
    for i in range(100):
        c = random_complex(rng, rng.randint(1, 8))
        brute = maximal_irreducibles(c)
        if (c.terminal_factors() != brute
                or random_order_factors(c, random.Random(i)) != brute):
            mismatches += 1
    elapsed = time.monotonic() - t0
    _verdict(3, "terminal-factors", mismatches == 0 and elapsed < 60.0,
             f"100 complexes, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_04_pipeline_goldens():
    def boundary_of(names, matrix):
        c = cox.CoxeterSystem(names, matrix)
        return c, format_expr(normalize(cox.boundary_expression(c)))

    failures = []
    _, out = boundary_of(["s", "t"], [[1, INF], [INF, 1]])
    if out != "PointPair":
        failures.append(f"infinite dihedral gave {out}")
    _, out = boundary_of(["a", "b"], [[1, 2], [2, 1]])
    if out != "Empty":
        failures.append(f"Klein four gave {out}")
    square, out = boundary_of(
        list("abcd"),
        [[1, 2, INF, 2], [2, 1, 2, INF], [INF, 2, 1, 2], [2, INF, 2, 1]])
    if out != "bd[a,b,c,d]":
        failures.append(f"right-angled 4-cycle gave {out}")
    if cox.classify_endedness(square).tag != "one_ended":
        failures.append("right-angled 4-cycle is not one-ended")
    _, out = boundary_of(list("abc"), [[1, 3, INF], [3, 1, 3], [INF, 3, 1]])
    if out != "Cantor":
        failures.append(f"3,3 path gave {out}")
    pair = [[1 if i == j else INF for j in range(8)] for i in range(8)]
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 0),
                 (4, 5), (5, 6), (6, 7), (7, 4)]:
        pair[i][j] = pair[j][i] = 2
    _, out = boundary_of(list("abcdefgh"), pair)
    if out != "Amalgam(bd[a,b,c,d], bd[e,f,g,h])":
        failures.append(f"disjoint 4-cycles gave {out}")
    _verdict(4, "pipeline-goldens", not failures, "; ".join(failures)
             or "5 golden boundaries match")


def _all_small_complexes(max_vertices):
    """Every simplicial complex with at most max_vertices vertices, one per
    antichain of maximal faces over a fixed labelled vertex pool."""
    subsets = []
    for r in range(1, max_vertices + 1):
        subsets.extend(frozenset(c)
                       for c in itertools.combinations(range(max_vertices), r))
    out = []

    def extend(start, chosen):
        if chosen:
            faces = [frozenset(f"v{i}" for i in s) for s in chosen]
            vertices = sorted(set().union(*faces))
            out.append(SimplicialComplex(vertices, faces))
        for k in range(start, len(subsets)):
            s = subsets[k]
            if all(not (s <= t or t <= s) for t in chosen):
                chosen.append(s)
                extend(k + 1, chosen)
                chosen.pop()

    extend(0, [])
    return out


def test_criterion_05_infinity_largeness():
    mismatches = 0
    checked = 0
    t0 = time.monotonic()

    def check(c):
        nonlocal mismatches, checked
        factors = c.terminal_factors()
        all_simplices = all(c.is_face(f) for f in factors)
        if c.is_infinity_large() != all_simplices:
            mismatches += 1
        checked += 1

    # every complex on at most 5 vertices
    for c in _all_small_complexes(5):
        check(c)
    # every flag complex on 6 vertices, one per graph
    pairs = list(itertools.combinations(range(6), 2))
    for bits in range(1 << len(pairs)):
        edges = {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
        check(clique_complex(6, edges))
    # random 8-vertex complexes
    rng = random.Random(5)
    for _ in range(100):
        check(random_complex(rng, 8))
    elapsed = time.monotonic() - t0
    _verdict(5, "infinity-largeness", mismatches == 0,
             f"{checked} complexes, {mismatches} mismatches, {elapsed:.2f}s")


def _biregular_ball_sizes(deg_base, deg_other, radius):
    """Ball sizes in the biregular tree by direct level recursion: the root
    spawns deg children, every later vertex spawns deg - 1 (one edge goes
    back to its parent), with degrees alternating by level parity."""
    counts = [1]
    for level in range(1, radius + 1):
        parent_deg = deg_base if (level - 1) % 2 == 0 else deg_other
        factor = parent_deg if level == 1 else parent_deg - 1
        counts.append(counts[-1] * factor)
    sizes = []
    total = 0
    for c in counts:
        total += c
        sizes.append(total)
    return sizes


def test_criterion_06_bass_serre_balls():
    g = gog_from_json(
        '{"vertices": {"u": {"order": 2}, "v": {"order": 3}},'
        ' "edges": [{"ends": ["u", "v"], "edge_order": 1}]}')
    got = [bass_serre_ball(g, "u", r).size() for r in range(7)]
    counted = list(itertools.accumulate(ball_counts(g, "u", 6)))
    oracle = _biregular_ball_sizes(2, 3, 6)
    stated = [1, 3, 7, 11, 19, 27, 43]
    d_infty = gog_from_json(
        '{"vertices": {"p": {"order": 2}, "q": {"order": 2}},'
        ' "edges": [{"ends": ["p", "q"], "edge_order": 1}]}')
    ok = (got == counted == oracle == stated
          and not is_non_elementary(d_infty)
          and is_non_elementary(g))
    _verdict(6, "bass-serre-balls", ok,
             f"sizes {got}, counted {counted}, oracle {oracle}, "
             f"elementary split detected: {not is_non_elementary(d_infty)}")


def test_criterion_07_approximation_suite():
    failures = []
    slowest = 0.0
    for label, x in (("two-point", TWO), ("circle-net", CIRCLE5)):
        t0 = time.monotonic()
        a = approx_mod.build_approx([x], 3, 3, 1 / 3)
        elapsed = time.monotonic() - t0
        slowest = max(slowest, elapsed)
        if elapsed >= 10.0:
            failures.append(f"{label} build took {elapsed:.2f}s")
        rep = approx_mod.check_conditions(a)
        bad = [k for k, v in rep.conditions.items() if v["verdict"] != "pass"]
        if bad:
            failures.append(f"{label} fails {bad}")
        control = approx_mod.build_approx([x], 3, 3, 1.0,
                                          _skip_scale_check=True)
        crep = approx_mod.check_conditions(control)
        if crep.conditions["a2"]["verdict"] != "fail":
            failures.append(f"{label} lambda=1 control passed (a2)")
    _verdict(7, "approximation-suite", not failures,
             "; ".join(failures) or
             f"both spaces pass, controls fail (a2), "
             f"slowest build {slowest:.2f}s")


def test_criterion_08_characterization_round_trip():
    failures = []
    count = 0
    for x in (TWO, CIRCLE5):
        for branching in (1, 2, 3):
            for depth in (0, 1, 2, 3):
                tag = f"{x.points[0]}*{len(x)} d{depth} b{branching}"
                a = approx_mod.build_approx([x], depth, branching, 1 / 3)
                s = char_mod.as_regular_structure(a)
                rep = char_mod.check_regularity(s)
                if not rep.all_pass():
                    bad = [k for k, v in rep.conditions.items()
                           if v["verdict"] != "pass"]
                    failures.append(f"{tag} regularity fails {bad}")
                    continue
                lab = char_mod.build_t_labelling(s, max_depth=len(s))
                if set(lab.assignment.values()) != set(range(len(s))):
                    failures.append(f"{tag} leaves subsets unconsumed")
                    continue
                vrep = char_mod.verify_labelling(lab, s)
                if not vrep.all_pass():
                    bad = [k for k, v in vrep.conditions.items()
                           if v["verdict"] != "pass"]
                    failures.append(f"{tag} labelling fails {bad}")
                count += 1
    _verdict(8, "characterization-round-trip", not failures,
             "; ".join(failures[:3]) or f"{count} configurations round-trip")


def test_criterion_09_merge_families():
    failures = []
    for pair in ((TWO, TWO_B), (CIRCLE5, TWO)):
        for branching in (2, 3):
            tag = f"{len(pair[0])}+{len(pair[1])} pts b{branching}"
            a = approx_mod.build_approx(list(pair), 0, branching, 1 / 3)
            s = char_mod.as_regular_structure(a)
            result = char_mod.merge_families(s)
            if result.ratio > 3.0:
                failures.append(f"{tag} ratio {result.ratio}")
                continue
            mrep = char_mod.check_regularity(result.structure)
            for key in ("a2", "a4"):
                if mrep.conditions[key]["verdict"] != "pass":
                    failures.append(f"{tag} merged structure fails ({key})")
    _verdict(9, "merge-families", not failures,
             "; ".join(failures) or "4 merges at ratio <= 3, null and "
             "density verdicts pass")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    coxeter_docs = {
        "d_infty.json": '{"generators": ["s", "t"], "m": [[1, "inf"], ["inf", 1]]}',
        "klein.json": '{"generators": ["a", "b"], "m": [[1, 2], [2, 1]]}',
        "square.json": ('{"generators": ["a", "b", "c", "d"], "m": '
                        '[[1, 2, "inf", 2], [2, 1, 2, "inf"], '
                        '["inf", 2, 1, 2], [2, "inf", 2, 1]]}'),
        "path33.json": ('{"generators": ["a", "b", "c"], "m": '
                        '[[1, 3, "inf"], [3, 1, 3], ["inf", 3, 1]]}'),
    }
    for name, doc in coxeter_docs.items():
        (tmp_path / name).write_text(doc)
    (tmp_path / "gog.json").write_text(
        '{"vertices": {"u": {"order": 2}, "v": {"order": 3}},'
        ' "edges": [{"ends": ["u", "v"], "edge_order": 1}]}')
    c = SimplicialComplex("abcd", [("a", "b"), ("b", "c"), ("c", "d"),
                                   ("d", "a")])
    (tmp_path / "complex.json").write_text(c.to_json())
    (tmp_path / "two.json").write_text(
        '{"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}')

    matrix = str(tmp_path / "ax.csv")
    meta = str(tmp_path / "ax.json")
    report = str(tmp_path / "report.json")
    invocations = (
        [["coxeter", "boundary", str(tmp_path / n)] for n in coxeter_docs]
        + [["amalgam", "normalize", "Amalgam(Empty)"],
           ["gog", "ball", str(tmp_path / "gog.json"), "--radius", "6",
            "--base", "u"],
           ["gog", "reduce", str(tmp_path / "gog.json"), "--seed", "5"],
           ["nerve", "decompose", str(tmp_path / "complex.json"),
            "--seed", "5"],
           ["approx", "build", "--spaces", str(tmp_path / "two.json"),
            "--depth", "3", "--branching", "3",
            "--scale", "0.3333333333333333",
            "--out-matrix", matrix, "--out-meta", meta],
           ["approx", "check", matrix, meta, "--report", report]])

    def run_all():
        snapshot = []
        for argv in invocations:
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            snapshot.append((argv[0], argv[1], code, out))
        for path in (matrix, meta, report):
            with open(path, "rb") as fh:
                snapshot.append((path, fh.read()))
        return snapshot

    first = run_all()
    second = run_all()
    codes_ok = all(entry[2] == 0 for entry in first if len(entry) == 4)
    _verdict(10, "cli-determinism", first == second and codes_ok,
             f"{len(invocations)} invocations byte-identical twice")
