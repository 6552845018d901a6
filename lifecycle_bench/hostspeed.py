"""Host-speed normalisation of the benchmark's timings.

The benchmark shares a few cores of a host with other tenants, and their
load changes how fast the same Python code runs by 20-40 % over minutes; a
mean over a longer run does not remove a drift that slow.  So while the
benchmark measures, it spends a fixed share (:data:`SHARE`) of its time
timing one fixed :func:`kernel`: a small stack-machine interpreter that is
part of the benchmark, not of the program, so no change to the program can
make it faster.  The benchmark calls :func:`tick` between operations (each
upload, each report, each set-up); a tick runs the kernel as often as the
share of the time since the last tick allows, so the samples fall evenly over
the work's time.  The kernel's mean time over a stretch of the run says how
slow the host was during that stretch.

The kernel is timed in its thread's CPU time: on a shared host a slow
stretch shows in CPU time as much as in wall time, while a wait for the GIL
held by another thread of the program does not count.  A :class:`Window`
turns a stretch's work time into normalised seconds, the seconds the same
work takes on a host whose kernel time is :data:`REFERENCE_KERNEL_S`: work
seconds times that reference over the window's mean kernel time.
:func:`clock` is the work clock every timing uses: wall time minus the time
spent in the kernel.  Sampling runs in the caller's thread between
operations; no timer or signal interrupts the program.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Optional

#: Share of the work's time spent timing the kernel.
SHARE = 0.03
#: The kernel's time on an idle 2-core Xeon host (Python 3.11).
REFERENCE_KERNEL_S = 1.0e-3

#: ``(op, argument)`` program of :func:`kernel`: sum 0..799 in a loop.
_PROGRAM = (
    ("push", 0), ("store", "i"),
    ("load", "i"), ("push", 800), ("lt", None), ("jz", 15),
    ("load", "acc"), ("load", "i"), ("add", None), ("store", "acc"),
    ("load", "i"), ("push", 1), ("add", None), ("store", "i"),
    ("jmp", 2), ("halt", None),
)
_SUM = sum(range(800))


class _Frame:
    __slots__ = ("stack", "env", "pc")

    def __init__(self) -> None:
        self.stack: List[object] = []
        self.env = {"acc": 0}
        self.pc = 0


def kernel() -> int:
    """Interpret :data:`_PROGRAM` once: dispatch, stack and dict work."""

    frame, code = _Frame(), _PROGRAM
    while True:
        op, arg = code[frame.pc]
        frame.pc += 1
        if op == "push":
            frame.stack.append(arg)
        elif op == "load":
            frame.stack.append(frame.env[arg])
        elif op == "store":
            frame.env[arg] = frame.stack.pop()
        elif op == "add":
            right = frame.stack.pop()
            frame.stack.append(frame.stack.pop() + right)
        elif op == "lt":
            right = frame.stack.pop()
            frame.stack.append(frame.stack.pop() < right)
        elif op == "jz":
            if not frame.stack.pop():
                frame.pc = arg
        elif op == "jmp":
            frame.pc = arg
        else:
            return frame.env["acc"]


class _Sampler:
    """The run's kernel samples and the time spent taking them."""

    running = False
    #: Kernel CPU seconds, in sample order, since :func:`start`.
    samples: List[float] = []
    #: Wall seconds spent in the kernel; :func:`clock` leaves them out.
    busy = 0.0
    #: Work clock at the last tick.
    last = 0.0
    #: Kernel seconds the work's time since then has paid for.
    owed = 0.0


_sampler = _Sampler()


def clock() -> float:
    """Wall seconds minus the sampler's own time."""

    return time.perf_counter() - _sampler.busy


def _kernel_cpu_seconds() -> float:
    # CPU time of this thread: a wait for another thread (fleet's server
    # threads) does not count, a slower CPU does.  The collector is off, so
    # a collection of the program's heap that the kernel's few allocations
    # would trigger is left to the program.
    enabled = gc.isenabled()
    gc.disable()
    try:
        cpu = time.thread_time()
        total = kernel()
        seconds = time.thread_time() - cpu
    finally:
        if enabled:
            gc.enable()
    if total != _SUM:
        raise AssertionError("host-speed kernel computed a wrong sum")
    return seconds


def tick() -> None:
    """Run the kernel for :data:`SHARE` of the work time since the last tick.

    Does nothing outside :func:`start` ... :func:`stop`.
    """

    if not _sampler.running:
        return
    _sampler.owed += (clock() - _sampler.last) * SHARE
    began = time.perf_counter()
    while _sampler.owed > time.perf_counter() - began:
        _sampler.samples.append(_kernel_cpu_seconds())
    elapsed = time.perf_counter() - began
    _sampler.busy += elapsed
    _sampler.owed -= elapsed
    _sampler.last = clock()


def start() -> None:
    """Clear the samples and let :func:`tick` sample until :func:`stop`."""

    _sampler.samples = []
    _sampler.owed = 0.0
    _sampler.last = clock()
    _sampler.running = True


def stop() -> None:
    _sampler.running = False


class Window:
    """A stretch of the run: its work seconds and its host-speed factor.

    ``with Window() as window: ...``; afterwards ``window.factor`` scales
    work seconds measured inside it to normalised seconds.
    """

    def __init__(self) -> None:
        self.first = 0
        self.factor: Optional[float] = None
        self.samples = 0

    def __enter__(self) -> "Window":
        tick()
        self.first = len(_sampler.samples)
        return self

    def __exit__(self, *exc) -> None:
        tick()
        # A window too short to hold a sample takes the run's mean so far.
        taken = _sampler.samples[self.first:] or _sampler.samples
        self.samples = len(taken)
        self.factor = (REFERENCE_KERNEL_S / statistics.fmean(taken)
                       if taken else 1.0)
