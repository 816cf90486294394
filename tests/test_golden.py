"""Byte-identity of rendered output across changes to the implementation.

Each case below renders a piece of user-visible output (axiom identities,
CLI stdout in text and JSON) and is compared by sha256 digest with the
output recorded before monomials became positional (for P^3(c6) at
p = 7, before seeds came from a generating function; for the Adem
identities at the bounds the benchmark runs, before the harness composed
on exponent dicts; for the verdict grid, the `--class` runs and the error
paths, before `SteenrodContext` was deleted).  A refactor that
changes a rendered term, an ordering or a JSON payload fails here; a
deliberate output change must re-record the digest and say why.
"""

import hashlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from stablyfree.cli import main
from stablyfree.modp import Prime
from stablyfree.models import FAMILIES, GroupModel
from stablyfree.obstruction import check_gl_quotient
from stablyfree.steenrod import verify_axiom


def _axiom(axiom, p, bound):
    report = verify_axiom(axiom, Prime(p), bound)
    return "\n".join(f"{c.description}|{c.lhs}|{c.rhs}|{c.passed}"
                     for c in report.checks)


def _cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}"


def _runs(*argvs):
    """Command line, exit code, stdout and stderr of each run, concatenated;
    argparse's own exit (usage errors) counts as an exit code."""
    chunks = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as e:
                code = e.code
        chunks.append(f"$ {' '.join(argv)}\nexit {code}\n{out.getvalue()}"
                      f"stderr:\n{err.getvalue()}")
    return "".join(chunks)


FORMATS = ((), ("--json",))


def _gl_grid(p):
    """Every GL_n/GL_a -> GL_n/GL_b with 0 <= a <= b <= n <= 10, both engines."""
    return _runs(*(("obstruct", "gl", "--n", str(n), "--a", str(a), "--b", str(b),
                    "-p", str(p), "--oracle", *fmt)
                   for n in range(11) for a in range(n + 1) for b in range(a, n + 1)
                   for fmt in FORMATS))


def _corank_one_grid(shape, p):
    """Sp / SO corank-one maps for 0 <= n <= 10 (n = 0 and SO at p = 2 fail)."""
    return _runs(*(("obstruct", shape, "--n", str(n), "-p", str(p), "--oracle", *fmt)
                   for n in range(11) for fmt in FORMATS))


def _class_grid(group, p):
    """P^op(aJ) on a group model for J = 1..9 and op = 0..3, including the
    classes that are not generators of the model."""
    return _runs(*(("steenrod", "-p", str(p), "--group", group, "--class", f"a{j}",
                    "--op", str(op), *fmt)
                   for j in range(1, 10) for op in range(4) for fmt in FORMATS))


# invalid input, several of it invalid in two ways at once: the first
# error reported is part of the output
ERROR_RUNS = (
    ("steenrod", "-p", "2", "--group", "SO:5", "--class", "x", "--op", "1"),
    ("steenrod", "-p", "2", "--group", "SO:5", "--class", "a3", "--op", "-1"),
    ("steenrod", "-p", "3", "--group", "SO:5", "--class", "x", "--op", "1"),
    ("steenrod", "-p", "3", "--group", "Sp:4", "--class", "a3", "--op", "1"),
    ("steenrod", "-p", "3", "--group", "Sp:4", "--class", "a2", "--op", "-1"),
    ("steenrod", "-p", "3", "--group", "Sp:4", "--class", "a3", "--op", "-1"),
    ("steenrod", "-p", "3", "--group", "GL:3", "--class", "a0", "--op", "1"),
    ("steenrod", "-p", "3", "--group", "GL:0", "--class", "a1", "--op", "0"),
    ("steenrod", "-p", "3", "--group", "Sp:5", "--class", "a2", "--op", "1"),
    ("steenrod", "-p", "3", "--group", "SO:1", "--class", "a2", "--op", "1"),
    ("steenrod", "-p", "3", "--group", "XX:5", "--class", "a2", "--op", "1"),
    ("steenrod", "-p", "3", "--class", "a2", "--op", "1"),
    ("steenrod", "-p", "4", "--group", "GL:3", "--class", "a1", "--op", "1"),
    ("steenrod", "-p", "3", "--op", "1"),
    ("obstruct", "gl", "--n", "3", "--a", "2", "--b", "1", "-p", "3"),
    ("obstruct", "gl", "--n", "3", "--a", "0", "--b", "4", "-p", "3"),
    ("obstruct", "gl", "--n", "-1", "--a", "0", "--b", "0", "-p", "3"),
    ("obstruct", "gl", "--n", "3", "--a", "-1", "--b", "1", "-p", "2"),
    ("obstruct", "gl", "--n", "3", "-p", "3"),
    ("obstruct", "sp", "--n", "-1", "-p", "3"),
    ("obstruct", "so", "--n", "0", "-p", "2"),
    ("obstruct", "so", "--n", "-1", "-p", "2"),
    ("obstruct", "sp", "-p", "3"),
    ("obstruct", "sp", "--n", "3", "-p", "1"),
    ("tor", "--family", "SO", "--n", "3", "-p", "2"),
    ("tor", "--family", "GL", "--n", "3", "--r", "5", "-p", "2"),
)


def _steenrod(p, poly, op):
    return _cli("steenrod", "-p", str(p), "--poly", poly, "--op", str(op), "--json")


CASES = {
    "axiom adem p=2 bound=14": lambda: _axiom("adem", 2, 14),
    "axiom adem p=3 bound=14": lambda: _axiom("adem", 3, 14),
    "axiom adem p=5 bound=13": lambda: _axiom("adem", 5, 13),
    "axiom adem p=2 bound=16": lambda: _axiom("adem", 2, 16),
    "axiom adem p=3 bound=15": lambda: _axiom("adem", 3, 15),
    "axiom adem p=2 bound=18": lambda: _axiom("adem", 2, 18),
    "axiom cartan p=2 bound=10": lambda: _axiom("cartan", 2, 10),
    "axiom cartan p=3 bound=10": lambda: _axiom("cartan", 3, 10),
    "axiom cartan p=5 bound=12": lambda: _axiom("cartan", 5, 12),
    "axiom pth_power p=2 bound=12": lambda: _axiom("pth_power", 2, 12),
    "axiom instability p=3 bound=12": lambda: _axiom("instability", 3, 12),
    "steenrod p=2 c1^2*c2 + c3 op=2": lambda: _steenrod(2, "c1^2*c2 + c3", 2),
    "steenrod p=2 c4 op=3": lambda: _steenrod(2, "c4", 3),
    "steenrod p=2 c1 op=5": lambda: _steenrod(2, "c1", 5),
    "steenrod p=3 2*c1*c2 + c3 op=1": lambda: _steenrod(3, "2*c1*c2 + c3", 1),
    "steenrod p=3 c2^2 op=2": lambda: _steenrod(3, "c2^2", 2),
    "steenrod p=5 c1*c3 + 3*c4 op=1": lambda: _steenrod(5, "c1*c3 + 3*c4", 1),
    "steenrod p=5 c2 op=2": lambda: _steenrod(5, "c2", 2),
    "steenrod p=7 c3 op=1": lambda: _steenrod(7, "c3", 1),
    "steenrod p=7 4*c1*c2 op=2": lambda: _steenrod(7, "4*c1*c2", 2),
    "steenrod p=7 c6 op=3": lambda: _steenrod(7, "c6", 3),
    "steenrod p=3 Sp:6 a2 op=1": lambda: _cli(
        "steenrod", "-p", "3", "--group", "Sp:6", "--class", "a2", "--op", "1",
        "--json"),
    "tor GL n=4 r=1 p=2": lambda: _cli("tor", "--family", "GL", "--n", "4",
                                       "--r", "1", "-p", "2"),
    "tor GL n=5 r=2 p=3 json": lambda: _cli("tor", "--family", "GL", "--n", "5",
                                            "--r", "2", "-p", "3", "--json"),
    "tor GL n=6 r=3 p=2 bound=24": lambda: _cli(
        "tor", "--family", "GL", "--n", "6", "--r", "3", "-p", "2", "--bound", "24"),
    "tor Sp n=3 p=3": lambda: _cli("tor", "--family", "Sp", "--n", "3", "-p", "3"),
    "tor Sp n=3 r=1 p=2 json": lambda: _cli("tor", "--family", "Sp", "--n", "3",
                                            "--r", "1", "-p", "2", "--json"),
    "tor SO n=3 p=5": lambda: _cli("tor", "--family", "SO", "--n", "3", "-p", "5"),
    "tor SO n=2 r=0 p=3 json": lambda: _cli("tor", "--family", "SO", "--n", "2",
                                            "--r", "0", "-p", "3", "--json"),
    "obstruct gl n=5 a=1 b=4 p=2": lambda: _cli(
        "obstruct", "gl", "--n", "5", "--a", "1", "--b", "4", "-p", "2",
        "--oracle", "--json"),
    "obstruct gl n=6 a=0 b=5 p=3": lambda: _cli(
        "obstruct", "gl", "--n", "6", "--a", "0", "--b", "5", "-p", "3",
        "--oracle", "--json"),
    "obstruct sp n=4 p=3": lambda: _cli("obstruct", "sp", "--n", "4", "-p", "3",
                                        "--oracle", "--json"),
    "obstruct sp n=3 p=2": lambda: _cli("obstruct", "sp", "--n", "3", "-p", "2",
                                        "--oracle", "--json"),
    "obstruct so n=3 p=5": lambda: _cli("obstruct", "so", "--n", "3", "-p", "5",
                                        "--oracle", "--json"),
    "scan q=3 p=2": lambda: _cli("obstruct", "scan", "--q", "3", "-p", "2",
                                 "--n-max", "40", "--json"),
    "error paths": lambda: _runs(*ERROR_RUNS),
}
for _p in (2, 3, 5, 7):
    CASES[f"verdict grid gl p={_p}"] = lambda p=_p: _gl_grid(p)
    for _shape in ("sp", "so"):
        CASES[f"verdict grid {_shape} p={_p}"] = lambda s=_shape, p=_p: _corank_one_grid(s, p)
    for _group in ("GL:8", "Sp:8", "SO:9"):
        CASES[f"class grid {_group} p={_p}"] = lambda g=_group, p=_p: _class_grid(g, p)

DIGESTS = {
    'axiom adem p=2 bound=14':
        '7e69e23659095fc422bc854506f0ea21dab6899a6239317ed23bc6b0a1bbee1b',
    'axiom adem p=3 bound=14':
        'd11b3e307bf39c9b1f03f7ce0dd6ca45908a5e3306855b5e2a04a4ddf80ecbae',
    'axiom adem p=5 bound=13':
        '14cd7cc68c608f107326b4599b3860c931e177d06ccd4ef47050b838d7adb809',
    'axiom adem p=2 bound=16':
        '58911fc172f8dbf9a328e2ed1e33522204942efe1de5d397f97a835a1947e238',
    'axiom adem p=3 bound=15':
        '63c5739ee8b34b26c332704ad51b214741eaeb7177a30188dd9c63b23bc63cc8',
    'axiom adem p=2 bound=18':
        'fae6f40f8f44a068ae7ebd343af49e42050ef2b678df6e9a2672aaa2e35ab3ab',
    'axiom cartan p=2 bound=10':
        'e38ccbaaefd9f9c2e9fac4f9550bfd76b36b680be9e99e02e33fef0a5904cdcd',
    'axiom cartan p=3 bound=10':
        'ba0ac67a6194d8ea0c3efd36e8a3b354f326204d52b646ba2a0b834a8a4d5fb2',
    'axiom cartan p=5 bound=12':
        '44e305e422b2db2f5dcaa3593c6b54ca062c5a3e8fa7f86f647dfe106cd67067',
    'axiom instability p=3 bound=12':
        '6eaaad06493a9438b8bde96562262dfb9abb5dafbea1183b85e78a83d145c50c',
    'axiom pth_power p=2 bound=12':
        '2cfd3f6db48fa5fee98bbb11409f1d8b56cacace818ffc766dfb04e263d611e0',
    'obstruct gl n=5 a=1 b=4 p=2':
        'f675e6a1c6f1afaab92335c45b63f51407be3a5080f71e1beb7dbce08627d8ea',
    'obstruct gl n=6 a=0 b=5 p=3':
        'a7f008a4d5bcf7aa8879c2c446dc9869a1e3397c25890be29432d06f57230a48',
    'obstruct so n=3 p=5':
        '2c4887f00618356df3c7612c37603b4f4be3113ce8e605d4b71dad9bd40eb38c',
    'obstruct sp n=3 p=2':
        'b0555e39af73e35b91b74b572eacb9642aef06d520d7221ddeed81a7d23ac8e3',
    'obstruct sp n=4 p=3':
        '58708f0ad1b260c5b7683aabca8b2c5a16100866c4802de0611a82cf8a1df0cf',
    'scan q=3 p=2':
        '5dbd9f3c0d1c8fc3cded96b7f9a88775e378c401f07babe9e74de09ae817d203',
    'steenrod p=2 c1 op=5':
        '43c03205bf2b6cbf1e1b46410e3b83733f2638f69984e668d84c8a90aefdc34f',
    'steenrod p=2 c1^2*c2 + c3 op=2':
        '6c3a44b4ec85e36bdf0a56c7ae42e0606d0b5a3d81840493444985180fc7de7d',
    'steenrod p=2 c4 op=3':
        'af3f1126570fc856c323dae5a31ed11c90ca953c68f99130226fe69eb8506a84',
    'steenrod p=3 2*c1*c2 + c3 op=1':
        'd1105e065f801d5d2afe4ee1e3d4784c449e80e7fe28954611e3101300858ddb',
    'steenrod p=3 Sp:6 a2 op=1':
        '60eb2c6510583fd156e9960d4280ed6934089eeadb30df93c6edf66d4a44dcb8',
    'steenrod p=3 c2^2 op=2':
        '0bf64fecfe46ea176a1f4a90186c667894b77eb12e31210baa44d02a0d26a0b0',
    'steenrod p=5 c1*c3 + 3*c4 op=1':
        '012e588e29cd221c13c27bdcb491a3a1c21a505a8e85f7f2bf4113e2617498f7',
    'steenrod p=5 c2 op=2':
        '281b5ee7847aa96da7b7f353a04315e7c75712355b62e687dc78714bb62c6fe5',
    'steenrod p=7 4*c1*c2 op=2':
        '8b90ed21dc70a8ee04b20aad5687f8107eade15ca36d6c112c9103d3be6eaa1c',
    'steenrod p=7 c3 op=1':
        '2344d9b08f1dd9eeaf635debf86ee917a3463663eaa9fcaeb1d36fb1db69ec2b',
    'steenrod p=7 c6 op=3':
        '19208a051b292ff8da788b3f145dbf79d80cba8ed6eda35eef9e640919f067be',
    'tor GL n=4 r=1 p=2':
        '6846ca61bb9691f0ba911e8fab8de4b3720faac0392d018bf90b02b365e41053',
    'tor GL n=5 r=2 p=3 json':
        'cb17215a4be8255e19715829c74ad3245addc3c6ec7b102d95b0636c720f8887',
    'tor GL n=6 r=3 p=2 bound=24':
        '7d9ec7c04b308fbb00969253f15c9d0c0cd740d74739e759d0a998a9dc9db018',
    'tor SO n=2 r=0 p=3 json':
        'ac31a2595b3ba27cc26a6e1361443cb7763a3164f33f0c2b38f9ca067bde1201',
    'tor SO n=3 p=5':
        '0d5e9d2c39a5d0e2b3208d0a0b8e9270966c293e91242e553427b7d449d31018',
    'tor Sp n=3 p=3':
        '37951baa16c6912b309e46d47fbc349ecdfb7a049c58d10a0e8c461ca439a344',
    'tor Sp n=3 r=1 p=2 json':
        '8491dc84f5646e9ce1371186a43cd213c1f06a82567ab8d6f30b7563c54c7d9d',
    'class grid GL:8 p=2':
        'b6b4ed56fdce786eea7b18ac56472a230ac2fa69082bbaa2e95ca5c0cf57a239',
    'class grid GL:8 p=3':
        'c3dca29954c99200a2764693bdce76a197299fa6117d11ece9f5426336c50fc4',
    'class grid GL:8 p=5':
        'efdd366152f72b7c8fd9705466f0a5d4bbd967b35d034c1ed1228efe8249d3d4',
    'class grid GL:8 p=7':
        'cd0b54e4d4ae392506e1dcc4f471fd3723e7f5989a6cf32cd666a45c0e7616ab',
    'class grid SO:9 p=2':
        '065d0c985f9acdb8d2826667301a33ea1ee37eb0c7d1337234ff37601a670b27',
    'class grid SO:9 p=3':
        '0bc7e4afb3c0b5a607e8714863e6ff14592ff3641e4034d7ea1a2a0129212acb',
    'class grid SO:9 p=5':
        '69cb59be13e94edbf3fc852dca24e00677b8194a195b38d867b75be2032b0206',
    'class grid SO:9 p=7':
        'd02e98871127319fbf57f7668583eb5511635fc1d4bef5c24c6f1cda02dfffbd',
    'class grid Sp:8 p=2':
        'f4c7af0d5d673af2bad50ffdfaac0070f0d76db10771c0d9b9a73e701a5c91be',
    'class grid Sp:8 p=3':
        '6df27b6ff7b789a7cc6d2ad3c38c4c9d5451e44b087965cf1b31e0bf5af01268',
    'class grid Sp:8 p=5':
        '711da39c90e3bef5187aacfdac86356ecddcd47ab328a142560b216ee864f349',
    'class grid Sp:8 p=7':
        'eca5034d09111ee4cc53049d11ee385a12a17ce1e0a25f712730b798f88c1f03',
    'error paths':
        'c6a37d4c191bc3e840f61928ec5dd0df6978efd051120353d78ddf5895b737dc',
    'verdict grid gl p=2':
        '183665664705d7452aba0c8b6fd1eaeb8fcb01b84b8a884477356e433e93106d',
    'verdict grid gl p=3':
        '365f4483adf84ff0a248c9a305d8bea930d2846acb65ebf7a975e39715d7fdf3',
    'verdict grid gl p=5':
        '708227161b5daf143f877f3b9ae42977828b58b6a607f13445d6b46225c1f695',
    'verdict grid gl p=7':
        'a13e8294621249726599cd1a804f2a453a80f45772ace9b7fe30875b4a0178f0',
    'verdict grid so p=2':
        'deed8c315cca8ce112628c563558fd86198ae8b18516eeffc492e038125ff61b',
    'verdict grid so p=3':
        'fad008a43f6eff31ce9fc585fb37076ffa84d8a15ddccf82bc83836d07d70626',
    'verdict grid so p=5':
        'dff5c4f35d6384e7ae2a2b4ba1eadb774fe608f0264ebc38ca0aa6a117e5793b',
    'verdict grid so p=7':
        '802629750588ddd1c7985c2fe0a5a839484f4cc71872987cd367fd80d1b0acbd',
    'verdict grid sp p=2':
        '0d3e0a89d157ff7759af237e1eaff6f9645780d65b4388b6beff117eaab34cda',
    'verdict grid sp p=3':
        '49b43e15d1c9db3cc8e0d158190f9e908d875a23270b48ef432f43778c1f12b0',
    'verdict grid sp p=5':
        'fcec0ba1f4b6c29e752f3176339e3ec54b4914395e40347034dd764c2fb6e466',
    'verdict grid sp p=7':
        'de97f84ce8d5359dc5005150ab3624cba9f1defee38aeb23b321c530bb43077f',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_recorded_digest(name):
    digest = hashlib.sha256(CASES[name]().encode()).hexdigest()
    assert digest == DIGESTS[name]


@pytest.mark.parametrize("family", FAMILIES)
def test_generator_indices_are_ranges(family):
    indices = GroupModel(family, 5).generator_indices()
    assert isinstance(indices, range)
    assert list(indices) == ([1, 2, 3, 4, 5] if family == "GL" else [2, 4, 6, 8, 10])


def test_gl_quotient_at_large_rank_follows_binomial_rule():
    """Lost sources a < m <= b, surviving targets b < m + i(p-1) <= n, kept
    when C(m-1, i) is nonzero mod p; at n = 10**6 no index list is built."""
    n, a, b, p = 10**6, 10**6 - 9, 10**6 - 1, 3
    expected = [(m, i, m + i * (p - 1), math.comb(m - 1, i) % p)
                for m in range(a + 1, b + 1) for i in range(1, (n - m) // (p - 1) + 1)
                if b < m + i * (p - 1) <= n and math.comb(m - 1, i) % p]
    report = check_gl_quotient(n, a, b, Prime(p))
    assert [(w.source, w.op, w.target, w.residue) for w in report.witnesses] == expected
