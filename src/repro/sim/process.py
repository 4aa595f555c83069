"""Coroutine-style simulation processes.

For scenario scripts that read like procedures ("wait 5 s, install the
blackhole, wait for the probe to finish, lift it"), a generator-based
process API sits on top of the event kernel:

* ``yield <seconds>`` — sleep for a simulated duration;
* ``yield <ProcessHandle>`` — wait until another process finishes;
* ``return <value>`` — finish, storing the result on the handle.

Examples
--------
>>> from repro.sim import Simulator
>>> from repro.sim.process import spawn
>>> sim = Simulator()
>>> log = []
>>> def worker(sim):
...     log.append(("start", sim.now))
...     yield 2.0
...     log.append(("done", sim.now))
...     return 42
>>> def supervisor(sim):
...     handle = spawn(sim, worker)
...     result = yield handle
...     log.append(("joined", sim.now, result))
>>> _ = spawn(sim, supervisor)
>>> _ = sim.run()
>>> log
[('start', 0.0), ('done', 2.0), ('joined', 2.0, 42)]
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from ..errors import SimulationError
from .kernel import Simulator

ProcessBody = Generator[Any, Any, Any]


class ProcessHandle:
    """A running (or finished) simulation process."""

    __slots__ = ("sim", "name", "_body", "finished", "result", "_waiters")

    def __init__(self, sim: Simulator, body: ProcessBody, name: str) -> None:
        self.sim = sim
        self.name = name
        self._body = body
        self.finished = False
        self.result: Any = None
        self._waiters: List["ProcessHandle"] = []

    # ------------------------------------------------------------------
    def _step(self, send_value: Any = None) -> None:
        try:
            yielded = self._body.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._handle_yield(yielded)

    def _handle_yield(self, yielded: Any) -> None:
        if isinstance(yielded, (int, float)):
            if yielded < 0:
                self._crash(
                    SimulationError(
                        f"process {self.name!r} yielded a negative delay "
                        f"({yielded})"
                    )
                )
                return
            self.sim.call_in(float(yielded), lambda s: self._step())
        elif isinstance(yielded, ProcessHandle):
            if yielded.finished:
                # Already done: resume at the same instant.
                self.sim.call_in(0.0, lambda s: self._step(yielded.result))
            else:
                yielded._waiters.append(self)  # repro: noqa[PRIV001] - same class
        else:
            self._crash(
                SimulationError(
                    f"process {self.name!r} yielded {yielded!r}; expected a "
                    "delay (seconds) or a ProcessHandle"
                )
            )

    def _crash(self, error: Exception) -> None:
        self._body.close()
        self.finished = True
        raise error

    def _finish(self, value: Any) -> None:
        self.finished = True
        self.result = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.sim.call_in(0.0, lambda s, w=waiter: w._step(self.result))  # repro: noqa[PRIV001] - same class

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"<Process {self.name!r} {state}>"


def spawn(
    sim: Simulator,
    fn: Callable[..., ProcessBody],
    *args: Any,
    name: Optional[str] = None,
    delay: float = 0.0,
    **kwargs: Any,
) -> ProcessHandle:
    """Start ``fn(sim, *args, **kwargs)`` as a process.

    The generator receives the simulator as its first argument and
    begins executing after ``delay`` simulated seconds (0 = at the
    current instant, once the kernel resumes).
    """
    body = fn(sim, *args, **kwargs)
    if not hasattr(body, "send"):
        raise SimulationError(
            f"{getattr(fn, '__name__', fn)!r} is not a generator function; "
            "process bodies must use yield"
        )
    handle = ProcessHandle(sim, body, name or getattr(fn, "__name__", "process"))
    sim.call_in(delay, lambda s: handle._step())  # repro: noqa[PRIV001] - same module
    return handle
