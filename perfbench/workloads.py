"""Seeded workloads: input files, operation lists and expected outputs.

Every operation is one user-level command, run in-process through
``denseamalgam.cli.main(argv)`` with its stdout captured.  Two operations
have no CLI command and go through the public API instead: the
approximation -> regular-structure conversion and ``quotient_profile``.

Expected outputs never come from the program under test, with one
exception.  They follow from a property the generator guarantees (every
``build_approx`` output passes the five conditions, regularity and the
labelling checks; a free product of one-ended blocks has one boundary atom
per block; a k-petal complex has its k petals as terminal factors) or from a
closed form (tree sizes, Bass-Serre ball sizes).  ``quotient_profile`` has no
theoretical expectation, so its verdicts are compared against
``quotient_expected.json``, recorded from the program by
``record_quotient.py``.
"""

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass

import denseamalgam
from denseamalgam import cli

SCALE = "0.3333333333333333"  # 1/3, as a user types it
QUOTIENT_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "quotient_expected.json")


@dataclass
class Op:
    """One operation: run it, then compare its output with the expectation.

    ``call`` returns (exit code, text); ``expect`` maps them to None when the
    output is the expected one, else to a one-line reason.  ``inputs`` are
    files an earlier operation of the same chain writes: when one is missing,
    the operation cannot run and counts as failed.
    """

    label: str
    call: object
    expect: object
    inputs: tuple = ()
    outputs: tuple = ()


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _lines(text):
    return text.splitlines()


def _expect_lines(want_code, want_lines):
    """Exit code and the exact listed lines, in order, at the start of stdout."""
    def check(code, text):
        if code != want_code:
            return _describe(code, text)
        got = _lines(text)[:len(want_lines)]
        if got != want_lines:
            return f"output {got!r}, expected {want_lines!r}"
        return None
    return check


def _expect_all_pass(extra=None):
    """A condition report whose every condition passes."""
    def check(code, text):
        if text.startswith("{"):  # the CLI's error object
            return _describe(code, text)
        bad = [line.split(":")[0] for line in _lines(text)
               if ": " in line and not line.startswith("overall")
               and line.split(": ", 1)[1].split(" ")[0] != "pass"]
        if code != 0 or bad or "overall: pass" not in _lines(text):
            return f"exit {code}, conditions failing: {', '.join(bad)}"
        if extra is not None:
            return extra(text)
        return None
    return check


def _describe(code, text):
    """Exit code plus the error the CLI printed, or its first line."""
    try:
        error = json.loads(text)["error"]
        return f"exit {code}: {error['type']}: {error['message']}"
    except (ValueError, KeyError, TypeError):
        lines = _lines(text)
        return f"exit {code}: {lines[0] if lines else ''}"


# ---------------------------------------------------------------------------
# Finite approximation chains

def _circle(n, names):
    return {"points": names,
            "dist": [[min(abs(i - j), n - abs(i - j)) for j in range(n)]
                     for i in range(n)]}


def _sources(rng):
    """The source spaces with seeded point names.  Names leave every
    distance, verdict and count unchanged, so all seeds do the same work."""
    letters = rng.sample("abdefghjkmnpqrsuvwxyz", 4)

    def names(k, i):
        return [f"{letters[k]}{j}" for j in range(i)]

    return {
        "two": _circle(2, names(0, 2)),
        "two_b": _circle(2, names(1, 2)),
        "circle5": _circle(5, names(2, 5)),
        "circle9": _circle(9, names(3, 9)),
    }


def _tree_counts(depth, branching):
    vertices = sum(branching ** j for j in range(depth + 1))
    return vertices, branching ** depth


def approx_chain(tag, space_files, sizes, depth, branching, work, *,
                 merge=False, quotient=None):
    """build -> check -> conversion -> regular check [-> merge] -> label
    build -> label verify [-> quotient_profile] for one configuration.

    sizes are the source space sizes; quotient is (eps, expected dict) or
    None.  All outputs go to the configuration's own directory.
    """
    d = os.path.join(work, tag)
    os.makedirs(d, exist_ok=True)
    am, aj = os.path.join(d, "approx.csv"), os.path.join(d, "approx.json")
    sm, sj = os.path.join(d, "struct.csv"), os.path.join(d, "struct.json")
    mm, mj = os.path.join(d, "merged.csv"), os.path.join(d, "merged.json")
    lab = os.path.join(d, "labelling.json")
    n_vertices, n_ends = _tree_counts(depth, branching)
    n_points = n_vertices * sum(sizes) + n_ends
    n_subsets = n_vertices * len(sizes)
    pairs = n_vertices * (n_vertices - 1) // 2

    def location_pairs(text):
        a5 = [line for line in _lines(text) if line.startswith("a5:")]
        if not a5 or f"location_pairs={pairs}" not in a5[0]:
            return f"a5 location pairs differ from {pairs}: {a5}"
        return None

    def convert():
        a = denseamalgam.load_bundle(am, aj)
        s = denseamalgam.as_regular_structure(a)
        denseamalgam.save_structure(s, sm, sj)
        return 0, f"subsets {len(s.subsets)} residual {len(s.residual)}"

    ops = [
        Op(f"{tag}: approx build",
           lambda: run_cli(["approx", "build", "--spaces", *space_files,
                            "--depth", str(depth), "--branching",
                            str(branching), "--scale", SCALE,
                            "--out-matrix", am, "--out-meta", aj]),
           _expect_lines(0, [f"points: {n_points}",
                             f"tree vertices: {n_vertices}",
                             f"ends: {n_ends}"]),
           outputs=(am, aj)),
        Op(f"{tag}: approx check", lambda: run_cli(["approx", "check", am, aj]),
           _expect_all_pass(location_pairs), inputs=(am, aj)),
        Op(f"{tag}: convert", convert,
           _expect_lines(0, [f"subsets {n_subsets} residual {n_ends}"]),
           inputs=(am, aj), outputs=(sm, sj)),
        Op(f"{tag}: regular check",
           lambda: run_cli(["regular", "check", sm, sj]),
           _expect_all_pass(), inputs=(sm, sj)),
    ]
    if merge:
        ops.append(Op(f"{tag}: regular merge",
                      lambda: run_cli(["regular", "merge", sm, sj,
                                       "--out-matrix", mm, "--out-meta", mj]),
                      _expect_lines(0, [f"rounds: {n_vertices}"]),
                      inputs=(sm, sj), outputs=(mm, mj)))
    ops += [
        Op(f"{tag}: label build",
           lambda: run_cli(["label", "build", sm, sj, "--max-depth",
                            str(n_subsets), "--out", lab]),
           _expect_lines(0, [f"tree vertices: {n_subsets}"]),
           inputs=(sm, sj), outputs=(lab,)),
        Op(f"{tag}: label verify",
           lambda: run_cli(["label", "verify", sm, sj, lab]),
           _expect_all_pass(), inputs=(sm, sj, lab)),
    ]
    if quotient is not None:
        eps, want = quotient

        def profile():
            s = denseamalgam.load_structure(sm, sj)
            return 0, json.dumps(quotient_summary(
                denseamalgam.quotient_profile(s, eps)), sort_keys=True)

        def check_profile(code, text):
            got = json.loads(text)
            return None if got == want else f"profile {got}, expected {want}"

        ops.append(Op(f"{tag}: quotient_profile", profile, check_profile,
                      inputs=(sm, sj)))
    return ops


def quotient_summary(profile):
    """The name-free part of a quotient profile."""
    return {"atom_count": profile["atom_count"],
            "c1": profile["c1"]["verdict"],
            "violation_count": profile["c1"]["violation_count"],
            "c2": profile["c2"]["verdict"],
            "cantor_like": profile["cantor_like"]}


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _write_sources(rng, work):
    files = {}
    for key, doc in _sources(rng).items():
        files[key] = os.path.join(work, f"{key}.json")
        _write_json(files[key], doc)
    return files


SWEEP_SOURCES = (
    ("two", ("two",)),
    ("circle5", ("circle5",)),
    ("circle9", ("circle9",)),
    ("two+two_b", ("two", "two_b")),
    ("circle5+two", ("circle5", "two")),
    ("two+circle5", ("two", "circle5")),
)
SWEEP_SIZES = {"two": 2, "two_b": 2, "circle5": 5, "circle9": 9}


# ROADMAP open item 3b: `regular check` fails these two-class builds,
# which `approx check` passes.  They are kept out of approx_sweep, where
# every operation must give its expected output, and run by known_defects.
KNOWN_DEFECTS = frozenset(
    [f"two+two_b-d{d}-b{b}" for d in range(4) for b in (1, 2)]
    + ["two+two_b-d0-b3"]
    + [f"{source}-d0-b{b}" for source in ("circle5+two", "two+circle5")
       for b in (1, 2, 3)])


def sweep_configs():
    for source, parts in SWEEP_SOURCES:
        for depth in range(4):
            for branching in (1, 2, 3):
                yield f"{source}-d{depth}-b{branching}", parts, depth, branching


def _sweep(seed, work, keep):
    files = _write_sources(random.Random(seed), work)
    with open(QUOTIENT_FILE) as fh:
        quotient_expected = json.load(fh)
    chains = [approx_chain(
        tag, [files[p] for p in parts], [SWEEP_SIZES[p] for p in parts],
        depth, branching, work, merge=len(parts) > 1,
        quotient=(quotient_eps(parts), quotient_expected[tag]))
        for tag, parts, depth, branching in sweep_configs() if keep(tag)]
    # stage by stage over all configurations, so that the few slow
    # operations of the largest configurations are spread over the pass
    return [op for stage in itertools.zip_longest(*chains) for op in stage
            if op is not None]


def approx_sweep(seed, work):
    """The approximation chain over the small configurations that pass."""
    return _sweep(seed, work, lambda tag: tag not in KNOWN_DEFECTS)


def known_defects(seed, work):
    """The chain over the KNOWN_DEFECTS configurations; not a workload."""
    return _sweep(seed, work, lambda tag: tag in KNOWN_DEFECTS)


def quotient_eps(parts):
    """A quarter of the largest source diameter (n // 2 for n points)."""
    return max(SWEEP_SIZES[p] // 2 for p in parts) / 4


# ---------------------------------------------------------------------------
# Coxeter and graph-of-groups pipelines

INF = "inf"


def _coxeter_doc(gens, order):
    return {"generators": gens,
            "m": [[1 if a == b else order(a, b) for b in gens] for a in gens]}


def _one_ended_block(kind, names):
    """A 4-generator one-ended system: D_inf x D_inf, affine A~3, or affine
    A~2 x A1 (each virtually Z^k with k >= 2, so one-ended)."""
    a, b, c, d = names
    if kind == 0:
        odd = {frozenset((a, b)): INF, frozenset((c, d)): INF}
    elif kind == 1:
        odd = {frozenset(p): 3 for p in ((a, b), (b, c), (c, d), (d, a))}
    else:
        odd = {frozenset(p): 3 for p in ((a, b), (b, c), (c, a))}
    return odd


def block_product(rng, names):
    """Free product of one-ended 4-generator blocks (infinite order between
    blocks), the block kinds taken in turn.

    Its nerve is the disjoint union of the block nerves, so the group has
    infinitely many ends and its boundary is the dense amalgam of the block
    boundaries.  The seed assigns generators to blocks and roles.
    """
    gens = list(names)
    rng.shuffle(gens)
    blocks = [gens[i:i + 4] for i in range(0, len(gens), 4)]
    odd = {}
    block_of = {}
    for i, block in enumerate(blocks):
        odd.update(_one_ended_block(i % 3, block))
        block.sort(key=names.index)
        for g in block:
            block_of[g] = i

    def order(s, t):
        if block_of[s] != block_of[t]:
            return INF
        return odd.get(frozenset((s, t)), 2)

    atoms = {"bd[" + ",".join(b) + "]" for b in blocks}
    return _coxeter_doc(list(names), order), atoms


def product_system(rng, names, pattern):
    """W1 x W2 on two halves of the generators, with an infinite-order pair
    in each factor: a direct product of two infinite groups is one-ended.

    The labels come from the fixed random pattern (so every seed does the
    same work); the seed decides which generator plays which role.
    """
    gens = list(names)
    rng.shuffle(gens)
    half = len(gens) // 2
    halves = (gens[:half], gens[half:])
    labels = {}
    for part in halves:
        for i, s in enumerate(part):
            for t in part[i + 1:]:
                labels[frozenset((s, t))] = pattern.choice((2, 2, 2, 3, INF))
        labels[frozenset(part[:2])] = INF

    def order(s, t):
        return labels.get(frozenset((s, t)), 2)

    return _coxeter_doc(list(names), order)


def petal_complex(rng, k):
    """k squares sharing one vertex; the squares are the terminal factors.

    The seed names the vertices; their order is fixed, so that the random
    splitting choices of ``nerve decompose`` do the same work for every
    seed."""
    letters = rng.sample("abcdefghjkmnpqrstuvwxyz", 4)
    hub = letters[0]
    vertices = [hub]
    petals = []
    faces = []
    for i in range(k):
        x, y, z = (f"{ch}{i:02d}" for ch in letters[1:])
        vertices += [x, y, z]
        petals.append(frozenset((hub, x, y, z)))
        faces += [[hub, x], [x, y], [y, z], [z, hub]]
    return {"vertices": vertices, "maximal_faces": faces}, petals


def biregular_ball_sizes(deg_base, deg_other, radius):
    """Ball sizes in the (deg_base, deg_other)-biregular tree: the root has
    deg_base children, every later vertex one fewer than its degree."""
    counts = [1]
    for level in range(1, radius + 1):
        parent_deg = deg_base if (level - 1) % 2 == 0 else deg_other
        counts.append(counts[-1] * (parent_deg if level == 1 else parent_deg - 1))
    sizes = [sum(counts[:r + 1]) for r in range(radius + 1)]
    return counts, sizes


def _free_product_gog(p, q, names):
    u, v = names
    return {"vertices": {u: {"order": p}, v: {"order": q}},
            "edges": [{"ends": [u, v], "edge_order": 1}]}


def _hairy_gog(pattern, names):
    """Z6 *_Z2 Z4 with trees of collapsible hair; reduces to the core edge.
    The fixed random pattern decides where each hair attaches."""
    core6, core4 = names[:2]
    vertices = {core6: {"order": 6}, core4: {"order": 4}}
    edges = [{"ends": [core6, core4], "edge_order": 2}]
    for i, name in enumerate(names[2:]):
        # order-3 hair hangs off Z6, order-2 hair off Z4, or off earlier hair
        # of the same order; every hair edge is onto the hair group
        order, core = (3, core6) if i % 2 == 0 else (2, core4)
        attach = pattern.choice([core] + [n for n in vertices
                                          if n not in names[:2]
                                          and vertices[n]["order"] == order])
        vertices[name] = {"order": order}
        edges.append({"ends": [attach, name], "edge_order": order})
    return {"vertices": vertices, "edges": edges}, (core6, core4)


def _random_expression(rng, atoms, depth):
    """A nested Amalgam over atoms and totally disconnected leaves."""
    parts = []
    for _ in range(rng.randint(2, 4)):
        r = rng.random()
        if depth > 0 and r < 0.3:
            parts.append(_random_expression(rng, atoms, depth - 1))
        elif r < 0.55:
            parts.append(rng.choice(("Empty", "Cantor", "PointPair",
                                     "t:td", "p:2pt")))
        else:
            parts.append(rng.choice(atoms))
    return "Amalgam(" + ", ".join(parts) + ")"


def _expect_amalgam_of(atoms):
    """Normal form: Amalgam over exactly these non-totally-disconnected
    atoms, each once (R1-R5); Cantor when none survive (R4)."""
    def check(code, text):
        out = text.strip()
        if code != 0:
            return _describe(code, text)
        if not atoms:
            return None if out == "Cantor" else f"{out!r}, expected Cantor"
        if not (out.startswith("Amalgam(") and out.endswith(")")):
            return f"{out!r} is not an amalgam of {sorted(atoms)}"
        got = out[len("Amalgam("):-1].split(", ")
        if len(got) != len(set(got)) or set(got) != set(atoms):
            return f"{out!r}, expected the atoms {sorted(atoms)}"
        return None
    return check


def _leaf_atoms(rng, k):
    return [f"X{rng.randrange(10 ** 6)}_{i}" for i in range(k)]


def _atoms_in(expr, atoms):
    return {a for a in atoms if a in expr.replace("(", " ").replace(",", " ")
            .replace(")", " ").split()}


def group_pipelines(seed, work):
    """Coxeter and graph-of-groups commands; no metric spaces at all.

    The 16-generator systems sit at the nerve's generator cap.  The mix is
    chosen so that each percentile lands inside a group of alike
    operations: the tail (11th slowest of 48) among the six 12-generator
    block products, the median among the cheap commands, whose latency is
    mostly the CLI's own.  Each group is spread evenly over the pass.
    """
    rng = random.Random(seed)
    slow, blocks, mid, cheap = [], [], [], []

    for n, n_blocks in ((16, 2), (12, 6)):
        names = [f"s{i:02d}" for i in range(n)]
        systems = [block_product(rng, names) for _ in range(n_blocks)]
        pattern = random.Random(n)
        systems += [(product_system(rng, names, pattern), None)
                    for _ in range(2)]
        for i, (doc, atoms) in enumerate(systems):
            label = f"coxeter-{n}-{i}"
            path = os.path.join(work, f"{label}.json")
            _write_json(path, doc)
            expect = (_expect_amalgam_of(atoms) if atoms is not None else
                      _expect_lines(0, ["bd[" + ",".join(names) + "]"]))
            group = slow if n == 16 else blocks if atoms is not None else mid
            group.append(Op(f"{label}: coxeter boundary",
                          lambda path=path: run_cli(["coxeter", "boundary", path]),
                          expect))

    for k in (10, 11, 12):
        doc, petals = petal_complex(rng, k)
        path = os.path.join(work, f"petals-{k}.json")
        _write_json(path, doc)
        want = [f"terminal factors: {k}"] + sorted(
            "  " + " ".join(sorted(p)) for p in petals)

        def check(code, text, want=want):
            got = _lines(text)
            if code != 0 or got[:1] != want[:1] or sorted(got[1:-1]) != want[1:] \
                    or got[-1:] != ["infinity-large: false"]:
                return f"exit {code}, output {got[:3]}..., expected {want[:3]}..."
            return None
        mid.append(Op(f"petals-{k}: nerve decompose",
                      lambda path=path: run_cli(["nerve", "decompose", path]),
                      check))

    # Z3 * Z4 over the Z3 vertex: 6,997 nodes at radius 9
    u, v = rng.sample(["p", "q", "r", "w"], 2)
    z34 = os.path.join(work, "z3z4.json")
    _write_json(z34, _free_product_gog(3, 4, (u, v)))
    for radius in (7, 8, 9):
        size = biregular_ball_sizes(3, 4, radius)[1][-1]
        (mid if radius == 7 else slow).append(Op(
            f"z3*z4 r{radius}: gog check",
            lambda radius=radius: run_cli(
                ["gog", "check", z34, "--radius", str(radius), "--base", u]),
            _check_separation(u, size)))
    z23 = os.path.join(work, "z2z3.json")
    _write_json(z23, _free_product_gog(2, 3, (v, u)))
    counts, sizes = biregular_ball_sizes(2, 3, 12)
    cheap.append(Op("z2*z3 r12: gog ball",
                  lambda: run_cli(["gog", "ball", z23, "--radius", "12",
                                   "--base", v]),
                  _expect_lines(0, [f"base: {v}",
                                    "counts by depth: " + " ".join(map(str, counts)),
                                    "ball sizes by radius: " + " ".join(map(str, sizes))])))
    cheap.append(Op("z2*z3: gog boundary",
                  lambda: run_cli(["gog", "boundary", z23]),
                  _expect_amalgam_of(set())))

    # the cheap commands take their shapes from fixed random patterns and
    # only their names from the seed, so every seed does the same work
    letter = rng.choice("abdefghjkmnpqrsuvwxyz")
    for i in range(4):
        hair = [f"{letter}{i}{j}" for j in range(8)]
        doc, core = _hairy_gog(random.Random(i),
                               [f"c{i}6", f"c{i}4"] + hair)
        path = os.path.join(work, f"hairy-{i}.json")
        _write_json(path, doc)

        def check(code, text, core=core):
            if code != 0:
                return _describe(code, text)
            got = json.loads(text)
            ok = (set(got["vertices"]) == set(core) and len(got["edges"]) == 1
                  and got["edges"][0]["edge_order"] == 2)
            return None if ok else f"reduced to {text!r}, expected the core {core}"
        cheap.append(Op(f"hairy-{i}: gog reduce",
                      lambda path=path, i=i: run_cli(
                          ["gog", "reduce", path, "--seed", str(i)]),
                      check))
        # the hair collapses, leaving Z6 *_Z2 Z4: finite vertex groups only
        cheap.append(Op(f"hairy-{i}: gog boundary",
                      lambda path=path: run_cli(["gog", "boundary", path]),
                      _expect_amalgam_of(set())))

    for i in range(20):
        atoms = _leaf_atoms(rng, 3)
        expr = _random_expression(random.Random(i), atoms, 2)
        cheap.append(Op(f"expr-{i}: amalgam normalize",
                      lambda expr=expr: run_cli(["amalgam", "normalize", expr]),
                      _expect_amalgam_of(_atoms_in(expr, atoms))))
    return _interleave(slow, blocks, mid, cheap)


def _interleave(*groups):
    """Spread each group evenly over the pass, so that the cheap commands
    are sampled across the whole run rather than in one burst."""
    keyed = [((i + 0.5) / len(group), k, op)
             for k, group in enumerate(groups) for i, op in enumerate(group)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def _check_separation(base, size):
    def check(code, text):
        got = _lines(text)
        want = [f"base: {base}", f"ball size: {size}"]
        if code != 0 or got[:2] != want:
            return f"exit {code}, output {got[:2]}, expected {want}"
        # the infinite tree passes both checks; the truncated ball may leave
        # edge sides undecided but never refutes them
        if got[2] not in ("edge separation: pass", "edge separation: inconclusive") \
                or got[3:] != ["three-way split: pass", "non-elementary: true"]:
            return f"separation verdicts {got[2:]}"
        return None
    return check


WORKLOADS = {
    "approx_sweep": approx_sweep,
    "group_pipelines": group_pipelines,
}
