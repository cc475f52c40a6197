"""The byte-identity corpus: 30 seeded random control-affine systems.

Each system has three or four states (the last one is w), two controls with
small polynomial entries, a parameter a that is unsigned, positive or
negative, a drift in some systems, and sin(w), cos(w) with
`assume_nonzero: cos(w)` in others.

    python tests/corpus.py

runs `analyze`, `verify` of the first state, `verify` of the first two
states together (`verify2`) and `brackets` of this checkout's ctrlinv on
every system and prints one line per run: system, run, exit code and the
sha256 of stdout followed by stderr (`timeout` instead of the last two for a
run over 60 s).  Two checkouts that print the same lines produce the same
reports, byte for byte.
"""

import hashlib
import os
import pathlib
import random
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SEED = 2026
COUNT = 30
TIMEOUT_S = 60
# run -> CLI command and its arguments; an int k stands for the system's
# k-th state
RUNS = {
    "analyze": ("analyze", ["--trials", "30", "--horizon", "1",
                            "--step", "0.01"]),
    "verify": ("verify", ["--rho", 0]),
    "verify2": ("verify", ["--rho", 0, "--rho", 1]),
    "brackets": ("brackets", ["--depth", "3"]),
}


def _entry(rng, atoms):
    """A sum of one to three rational multiples of monomials of degree at
    most two in the atoms."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [rng.choice(atoms) for _ in range(rng.randint(0, 2))]
        coeff = rng.choice(["1", "2", "-1", "3", "1/2", "-2/3"])
        terms.append("*".join([coeff] + factors))
    return " + ".join(terms)


def _field(rng, n, atoms):
    """A vector field: random entries, or a coordinate vector."""
    if rng.random() < 0.3:
        k = rng.randrange(n)
        return ["1" if i == k else "0" for i in range(n)]
    return [_entry(rng, atoms) if rng.random() < 0.7 else "0"
            for _ in range(n)]


def system_text(rng):
    """The DSL text of one random system."""
    states = ["x", "y", "z", "w"][:rng.choice([3, 4])]
    states[-1] = "w"
    sign = rng.choice(["", " > 0", " < 0"])
    trig = rng.random() < 0.5
    atoms = states + ["a"] + (["sin(w)", "cos(w)"] if trig else [])
    lines = [f"states: {' '.join(states)}", f"params: a{sign}"]
    if rng.random() < 0.4:
        lines.append(f"drift: [{', '.join(_field(rng, len(states), atoms))}]")
    for j in (1, 2):
        field = _field(rng, len(states), atoms)
        if not any(e != "0" for e in field):
            field[-1] = "1"
        lines.append(f"control g{j}: [{', '.join(field)}]")
    if trig:
        lines.append("assume_nonzero: cos(w)")
    return "\n".join(lines) + "\n"


def systems():
    """The corpus: (name, text) of each system, in order."""
    rng = random.Random(SEED)
    return [(f"r{i:02d}", system_text(rng)) for i in range(COUNT)]


def run(text, name):
    """(exit code, sha256 of stdout + stderr) of one run on a system, or
    None past the timeout."""
    command, args = RUNS[name]
    states = text.splitlines()[0].split()[1:]
    args = [states[a] if isinstance(a, int) else a for a in args]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    try:
        done = subprocess.run(
            [sys.executable, "-c", "from ctrlinv.cli import main; main()",
             command, "-", *args],
            input=text.encode(), capture_output=True, env=env,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode, hashlib.sha256(done.stdout + done.stderr).hexdigest()


def main():
    for system, text in systems():
        for name in RUNS:
            result = run(text, name)
            line = "timeout" if result is None else "%d %s" % result
            print(f"{system} {name} {line}", flush=True)


if __name__ == "__main__":
    main()
