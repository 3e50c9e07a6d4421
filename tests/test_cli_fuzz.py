"""A seeded fuzz test of the command line.

About 400 in-process calls to `cli.main` with mutated copies of valid
graph text, graph6, poset and collection files and with boundary numbers
for the numeric flags.  Every call must end within a time limit with exit
0, 1, 2 or 64, exit 1 must come with a JSON error, and nothing may print a
traceback or exit 70.  The real `verify` suites and the gap reports are
left out: they read no input file and take seconds each.
"""
import itertools
import json
import random
import signal

from obskit.cli import main
from obskit.families import FAMILIES, complete, grid, star, theta
from obskit.multigraph import MultiGraph, format_graph_text, to_graph6
from obskit.obstructions import BUILTIN_CLASSES
from obskit.poset import format_poset_text, rado_truncation
from obskit.universal import CERTIFICATES, COLLECTIONS

SEED = 31
CALLS = 400
#: seconds one call may take before it counts as hung
LIMIT_S = 2.0
ALLOWED_EXITS = {0, 1, 2, 64}

#: boundary numbers put into files and flags; vertex counts stay at most
#: 2 * 10**6, twice the text format's limit
NUMBERS = ["-1", "0", "1", "2", "3", "8", "9", "16", "17", "255", "256",
           "1000000", "1000001", "2000000", "x", "1.5", "", "+3", "1e3"]
#: --k values of gen: small members, and indices past the size limit of
#: every family but theta
GEN_KS = ["-1", "0", "1", "2", "3", "40", "578", "1414", "500001",
          "1000000", "100000000", "10" * 50, "x"]
BUDGETS = ["0", "-1", "nan", "inf", "1e-9", "1", "200", "x", "1e308"]
#: --nmax and --multmax: the scans stay under a second (up to 5 vertices
#: and multiplicity 2), and the values just above the caps are refusals
NMAX = ["-1", "0", "1", "2", "4", "5", "9", "1000000", "x"]
MULTMAX = ["-1", "0", "1", "2", "9", "1000000000", "x"]
RADO_NS = ["-1", "0", "1", "2", "3", "20", "201", "1000000000", "x"]
WITNESS = ["-1", "0", "1", "2", "5", "20", "200", "201", "1000000000"]


class _Hung(BaseException):
    """Raised by the interval timer.  `main` catches only exceptions, so it
    cannot swallow this one."""


def _graphs():
    multi = MultiGraph.build(4, [(0, 1, 3), (1, 2), (2, 3, 2), (0, 3)])
    return [format_graph_text(g)
            for g in (complete(4), grid(3), theta(3), star(4), multi)]


def _graph6s():
    return [to_graph6(g) + "\n" for g in (complete(4), grid(3), star(3))]


def _posets():
    diamond = ("elem bottom\nelem left\nelem right\nelem top\n"
               "le bottom left\nle bottom right\nle left top\nle right top\n")
    return [diamond, format_poset_text(rado_truncation(3))]


def _collections():
    return [json.dumps({"name": "mine", "relation": "minor",
                        "families": ["grid"]}),
            json.dumps({"relation": "immersion",
                        "families": ["star", "theta"]})]


def _mutate(text: str, rng: random.Random) -> str:
    """One to three random edits: a number token replaced by a boundary
    number, a line deleted, doubled or swapped, a character inserted,
    replaced or cut off, or a blank line inserted."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        op = rng.randrange(8)
        if op == 0:
            spots = [(i, j) for i, line in enumerate(lines)
                     for j, tok in enumerate(line.split()) if tok.isdigit()]
            if spots:
                i, j = rng.choice(spots)
                toks = lines[i].split()
                toks[j] = rng.choice(NUMBERS)
                lines[i] = " ".join(toks)
        elif op == 1 and lines:
            del lines[rng.randrange(len(lines))]
        elif op == 2 and lines:
            i = rng.randrange(len(lines))
            lines.insert(i, lines[i])
        elif op == 3 and len(lines) > 1:
            i, j = rng.sample(range(len(lines)), 2)
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 4:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", " ", "\r"]))
        text = "\n".join(lines)
        if op == 5:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice("#e n0-~{}\"\t\x00é") + text[at:]
        elif op == 6 and text:
            at = rng.randrange(len(text))
            text = text[:at] + chr(rng.randrange(32, 127)) + text[at + 1:]
        elif op == 7:
            text = text[:rng.randrange(len(text) + 1)]
    return text


def _invocations(rng: random.Random, write):
    """Argument lists, one per call."""
    graphs, graph6s = _graphs(), _graph6s()

    def graph_file():
        text = rng.choice(graph6s if rng.random() < 0.2 else graphs)
        return write(text if rng.random() < 0.2 else _mutate(text, rng))

    def pick(names, bogus="bogus"):
        return rng.choice([*names, bogus])

    for _ in range(CALLS):
        command = rng.choice(["contain", "contain", "contain", "param",
                              "param", "obs", "gen", "gen", "universal",
                              "universal", "poset", "poset", "verify"])
        if command == "contain":
            argv = ["contain", "--relation",
                    pick(["subgraph", "tm", "minor", "immersion"]),
                    "--h", graph_file(), "--g", graph_file()]
            if rng.random() < 0.3:
                argv += ["--mode", pick(["simple", "multi"])]
            if rng.random() < 0.5:
                argv += ["--budget-ms", rng.choice(BUDGETS)]
        elif command == "param":
            argv = ["param", "--kind",
                    pick(["tw", "pw", "cw", "bi_pw", "ed", "z_apex"]),
                    "--g", graph_file()]
            for _ in range(rng.choice([0, 0, 1, 2])):
                argv += ["--z", graph_file()]
        elif command == "obs":
            argv = ["obs", "--class", pick(BUILTIN_CLASSES),
                    "--nmax", rng.choice(NMAX), "--multmax", rng.choice(MULTMAX)]
        elif command == "gen":
            argv = ["gen", "--family", pick(FAMILIES), "--k", rng.choice(GEN_KS)]
            if rng.random() < 0.3:
                argv += ["--out", rng.choice([write(""), write("") + "/no/dir"])]
        elif command == "universal":
            action = rng.choice(["eval", "eval", "approx", "gap"])
            argv = ["universal", action]
            if action == "eval":
                if rng.random() < 0.5:
                    argv += ["--collection", pick(COLLECTIONS)]
                else:
                    text = rng.choice(_collections())
                    argv += ["--collection-file",
                             write(_mutate(text, rng) if rng.random() < 0.8 else text)]
                argv += ["--g", graph_file()]
            elif action == "approx":
                argv += ["--certificate", pick(CERTIFICATES), "--g", graph_file(),
                         "--k", rng.choice(NUMBERS)]
            else:  # a usage error only: a real gap report takes seconds
                argv += ["--certificate", "bogus"]
        elif command == "poset":
            action = rng.choice(["width", "chains", "rado"])
            argv = ["poset", action]
            if action == "rado":
                if rng.random() < 0.7:
                    argv += ["--n", rng.choice(RADO_NS)]
                if rng.random() < 0.5:
                    argv += ["--witness", rng.choice(WITNESS), rng.choice(WITNESS)]
            else:
                argv += ["--poset", write(_mutate(rng.choice(_posets()), rng))]
        else:  # the real suites read no input file and take seconds
            argv = ["verify", "--suite", "bogus"]
        if rng.random() < 0.05:
            argv.insert(rng.randrange(1, len(argv) + 1),
                        rng.choice(["--stray", "--k", "--format", "-", "--help"]))
        yield argv


def _run(argv, capsys):
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        code = exc.code
    except _Hung:
        code = "hung"
    except Exception as exc:  # the installed entry point would print a traceback
        code = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    out = capsys.readouterr()
    return code, out.out, out.err


def _problem(code, out, err):
    if code not in ALLOWED_EXITS:
        return f"exit {code}"
    if "Traceback" in out + err:
        return "printed a traceback"
    if code == 1:
        try:
            json.loads(err.strip().splitlines()[-1])["error"]
        except (IndexError, ValueError, KeyError, TypeError):
            return f"exit 1 without a JSON error: {err[-200:]!r}"
    return None


def test_cli_survives_mutated_inputs(capsys, tmp_path):
    rng = random.Random(SEED)
    made = itertools.count()

    def write(text):
        path = tmp_path / f"in{next(made)}"
        path.write_text(text)
        return str(path)

    def hung(signum, frame):
        raise _Hung

    previous = signal.signal(signal.SIGALRM, hung)
    failures, exits = [], set()
    try:
        for argv in _invocations(rng, write):
            code, out, err = _run(argv, capsys)
            exits.add(code)
            problem = _problem(code, out, err)
            if problem:
                failures.append(f"{problem}: obskit {' '.join(argv)}")
                if len(failures) == 5:
                    break
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, "\n".join(failures)
    # the mutations reach both answers and refusals
    assert {0, 1, 64} <= exits
