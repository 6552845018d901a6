"""Seeded input generators for the lifecycle benchmark.

Every generator takes a ``random.Random`` and a fixed *shape*: how many runs,
lines, requests and bytes.  The seed draws only contents — letters, and how a
file's fixed byte total splits into lines — so every seed does the same shape
of work while the recorded branch logs, and hence the trace bytes, differ.  Environment names carry an index, never the seed, so a trace's
bytes change with a seed only where its recorded behaviour does.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.environment import Environment, simple_environment
from repro.trace import EnvironmentSpec
from repro.workloads import diffutil, httpgen, library_functions_for, userver
from repro.workloads.coreutils import mkdir, mkfifo, mknod, paste

LETTERS = string.ascii_lowercase

#: The program set of the release workload (source per trace program name).
SOURCES: Dict[str, str] = {
    "userver": userver.SOURCE,
    "diff": diffutil.SOURCE,
    "mkdir": mkdir.SOURCE,
    "mknod": mknod.SOURCE,
    "mkfifo": mkfifo.SOURCE,
    "paste": paste.SOURCE,
}


def programs() -> Dict[str, Tuple[str, frozenset]]:
    """``name -> (source, library functions)``, the service's program table."""

    return {name: (source, library_functions_for(source))
            for name, source in SOURCES.items()}


def analysis_environment(program: str) -> Environment:
    """The developer's fixed pre-deployment input for *program* (seed-free)."""

    return {
        "userver": userver.experiment(2),
        "diff": diffutil.experiment_2(),
        "mkdir": mkdir.bug_scenario(),
        "mknod": mknod.bug_scenario(),
        "mkfifo": mkfifo.bug_scenario(),
        "paste": paste.bug_scenario(),
    }[program]


@dataclass(frozen=True)
class Shape:
    """Fixed sizes of one generated run; only contents come from the seed."""

    program: str
    #: requests (userver) or lines (diff, paste); unused by the small tools
    count: int = 0
    #: letters per URI (userver), or per file split across its lines
    total: int = 0


def _letters(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(length))


def _split(rng: random.Random, total: int, parts: int) -> List[int]:
    """*parts* lengths summing to *total*, drawn in balanced pairs.

    Each pair moves bytes from one member to the other, so the sum (and with
    it the file size and the bytes every run reads and compares) is
    independent of the seed, while the line boundaries the program branches
    on are not.
    """

    base = total // parts
    lengths = [base] * parts
    lengths[-1] += total - base * parts
    for index in range(0, parts - 1, 2):
        delta = rng.randint(0, base // 2)
        lengths[index] += delta
        lengths[index + 1] -= delta
    return lengths


def _userver(rng: random.Random, shape: Shape, name: str) -> Environment:
    # Request lengths are part of the trace's structure, so each URI keeps
    # its fixed length; only its letters are drawn.
    uris = ["/" + _letters(rng, shape.total) for _ in range(shape.count)]
    return userver.environment_for([httpgen.get_request(uri) for uri in uris],
                                   name=name)


def _lines(rng: random.Random, shape: Shape) -> List[str]:
    return [_letters(rng, length)
            for length in _split(rng, shape.total, shape.count)]


def _diff(rng: random.Random, shape: Shape, name: str) -> Environment:
    old = _lines(rng, shape)
    new = list(old)
    # Two changed lines at fixed positions, each differing in its last
    # letter, so the comparison does the same work for every seed.
    for index in (1, shape.count - 2):
        last = old[index][-1]
        new[index] = old[index][:-1] + rng.choice(LETTERS.replace(last, ""))
    encode = lambda lines: "".join(line + "\n" for line in lines).encode()
    return diffutil.custom_scenario(encode(old), encode(new), name=name)


def _paste(rng: random.Random, shape: Shape, name: str) -> Environment:
    # The trailing-backslash delimiter crash after pasting a file.
    content = "".join(line + "\n" for line in _lines(rng, shape)).encode()
    return simple_environment(["paste", "/big.txt", "-d\\"],
                              files={"/big.txt": content}, name=name)


def _small(rng: random.Random, shape: Shape, name: str) -> Environment:
    """The coreutils crash invocations with seeded operand names."""

    argv = {
        "mkdir": lambda: ["mkdir", "-p", _letters(rng, 8), "-m"],
        "mknod": lambda: ["mknod", _letters(rng, 8), "b"],
        "mkfifo": lambda: ["mkfifo", "-m", "07777", _letters(rng, 8)],
        "paste": lambda: ["paste", "-d\\", _letters(rng, 26)],
    }[shape.program]()
    return simple_environment(argv, name=name)


def generate(rng: random.Random, shape: Shape, name: str) -> Environment:
    """One user-site run of *shape*, its contents drawn from *rng*."""

    if shape.program == "userver":
        return _userver(rng, shape, name)
    if shape.program == "diff":
        return _diff(rng, shape, name)
    if shape.program == "paste" and shape.count:
        return _paste(rng, shape, name)
    return _small(rng, shape, name)


def batch(seed: int, stream: str,
          shapes: Sequence[Shape]) -> List[Tuple[str, Environment]]:
    """``(program, environment)`` per shape, drawn from one seeded stream."""

    rng = random.Random(f"{stream}:{seed}")
    return [(shape.program, generate(rng, shape, f"{shape.program}-{stream}{i}"))
            for i, shape in enumerate(shapes)]


def zipf_schedule(seed: int, uploads: int, bugs: int,
                  exponent: float = 1.1) -> List[Tuple[str, int]]:
    """``(user id, bug index)`` per upload, bug ranks Zipf-distributed.

    The k-th upload of a bug comes from user ``k``, so every (user, trace)
    pair is uploaded once: each upload is a real ingest, and every upload of
    a bug after its first folds into that bug's cluster.
    """

    rng = random.Random(f"fleet-schedule:{seed}")
    weights = [1.0 / (rank + 1) ** exponent for rank in range(bugs)]
    seen = [0] * bugs
    schedule = []
    for bug in rng.choices(range(bugs), weights=weights, k=uploads):
        schedule.append((f"user{seen[bug]:04d}", bug))
        seen[bug] += 1
    return schedule


def environment_bytes(environment: Environment) -> bytes:
    """Canonical bytes of a generated input (for identity checks)."""

    spec = EnvironmentSpec.capture(environment)
    return repr((environment.name, spec)).encode()
