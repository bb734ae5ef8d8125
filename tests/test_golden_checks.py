"""check and relations pinned byte for byte over a seeded corpus.

The test writes about 150 parameter files itself: Cartesian and polar
values, points made reducible by solve_case and random points, a quarter of
them with the cubic eigenvalues y3 and z3.  Each file runs through check and
relations, in json and text, at r sign +1 and -1, and one sha256 covers every
argv, exit code, stdout and stderr in turn.  The digest was recorded on
Linux/glibc, as GOLDEN_SWEEPS was: the draws go through libm's pow, cos and
sin.
"""

import cmath
import hashlib
import json
import math
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from heckeg7.cli import main
from heckeg7.irreducibility import ALL_CASES, solve_case
from heckeg7.representation import Params

CORPUS_FILES = 150

GOLDEN_CHECKS = (
    "b7906d019c7b72e9d4b5a0478896eed79223409de68f0c7d4a55dc04005ea763",
    {("check", 0): 450, ("check", 2): 150, ("relations", 0): 588, ("relations", 2): 12},
)


def draw(rng: random.Random) -> complex:
    return cmath.rect(10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(-math.pi, math.pi))


def encode(z: complex, polar: bool) -> dict:
    if not polar:
        return {"re": z.real, "im": z.imag}
    modulus, argument = cmath.polar(z)
    # parameter files take arguments in (-pi, pi]
    return {"modulus": modulus, "argument": math.pi if argument <= -math.pi else argument}


def write_corpus(directory) -> list[str]:
    """Write the files into directory; return their names, in order."""
    rng = random.Random("golden-checks")
    cases = tuple(ALL_CASES)
    names = []
    for k in range(CORPUS_FILES):
        p = Params(*(draw(rng) for _ in range(6)))
        if k % 2 == 0:
            p = solve_case(cases[(k // 2) % len(cases)], p)
        polar = rng.random() < 0.5
        doc = {name: encode(value, polar) for name, value in p.as_dict().items()}
        if rng.random() < 0.25:
            doc["y3"] = encode(draw(rng), polar)
            doc["z3"] = encode(draw(rng), polar)
        name = f"point-{k:03d}.json"
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")
        names.append(name)
    return names


class TestGoldenChecks:
    def test_stdout_stderr_and_exit_codes(self, tmp_path, monkeypatch):
        names = write_corpus(tmp_path)
        monkeypatch.chdir(tmp_path)  # so that a message naming a file is the same everywhere
        digest, codes = hashlib.sha256(), Counter()
        for name in names:
            for command in ("check", "relations"):
                for output in ("json", "text"):
                    for r_sign in ("1", "-1"):
                        argv = [command, name, "--r-sign", r_sign, "--output", output]
                        out, err = StringIO(), StringIO()
                        with redirect_stdout(out), redirect_stderr(err):
                            code = main(argv)
                        codes[command, code] += 1
                        for part in (" ".join(argv), str(code), out.getvalue(), err.getvalue()):
                            digest.update(f"{len(part)}:{part}".encode())
        assert (digest.hexdigest(), dict(codes)) == GOLDEN_CHECKS
