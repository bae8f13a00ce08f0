"""Case timing, spans and counters for one benchmark run.

An untraced run times each case as a whole.  A traced run also records a
span around every call into orbikit that the benchmark makes: its name,
start and end in perf_counter_ns, the span that was open when it started
and the case it belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

# Public call -> ROADMAP stage.  "cli" marks whole CLI calls, which span
# every stage.
STAGE = {
    "catalog.load": "read",
    "formats.loads": "read",
    "quotient.build_kummer": "build",
    "quotient.build_projective_quotient": "build",
    "formats.presentation_from_obj": "build",
    "formats.diamond_from_obj": "build",
    "inertia.assemble_diamond": "assemble",
    "inertia.is_gorenstein": "invariants",
    "diamond.stringy_e": "invariants",
    "diamond.columns": "invariants",
    "diamond.check_symmetries": "invariants",
    "invariants.hochschild_via_sectors": "invariants",
    "invariants.check_partners": "invariants",
    "invariants.reconstruct_gorenstein": "invariants",
    "invariants.mckay_compare": "invariants",
    "cli.render_table": "render",
    "cli.render_json": "render",
    "cli.render_csv": "render",
    "cli.render_tex": "render",
    "formats.presentation_to_obj": "render",
    "formats.dumps": "render",
    "cli.main": "cli",
    "cli.dispatch": "cli",
    "cli.subprocess": "cli",
    "python_startup": "cli",
}
STAGES = ("read", "build", "assemble", "invariants", "render")
LAYERS = ("quotient", "inertia", "invariants", "diamond", "cli", "formats", "catalog")

#: Medians of a calibration slice and of `python -c pass` on the reference
#: machine (2-core Xeon VM, Python 3.11.7).  Each case's time is scaled by
#: reference / the slices measured around it, and each subprocess call by
#: reference / the `python -c pass` calls around it, so that cases run while
#: the machine is faster or slower compare (see NOTES.md).
REFERENCE_CALIBRATION_NS = 1_800_000
REFERENCE_PYTHON_STARTUP_NS = 55_000_000


def calibration_kernel() -> int:
    """Fixed pure-Python work like orbikit's loops: Fraction keys summed in a dict."""
    entries: dict = {}
    for i in range(1, 250):
        a = Fraction(i % 97, 1 + i % 13)
        key = (a, a + i % 5)
        entries[key] = entries.get(key, 0) + i
    return len(entries) + sum(entries.values())


def calibration_slice() -> int:
    """Time of one calibration kernel in ns, with the garbage collector off so
    that it does not depend on how many objects the run keeps alive."""
    gc.disable()
    try:
        start = time.perf_counter_ns()
        calibration_kernel()
        return time.perf_counter_ns() - start
    finally:
        gc.enable()


class CaseFailure(Exception):
    """An oracle mismatch, attributed to the layer whose output was wrong."""

    def __init__(self, layer: str, message: str):
        super().__init__(message)
        self.layer = layer


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index, case_id]
        self._open: list[int] = []
        self.case_id = 0
        self._slice_of: dict[int, int] = {}  # case id -> index of the slice taken before it
        self.cases: list[tuple[int, int, int]] = []  # (case id, ns, sectors) of timed cases
        self.round_starts: list[int] = []  # index into cases where each round begins
        self.paired: list[tuple[int, int]] = []  # (untraced_ns, traced_ns) of the same case
        self.cli_ns: list[float] = []  # reference-speed ns of each subprocess call
        self.pass_ns: list[int] = []  # raw ns of each `python -c pass`
        self.calib_ns: list[int] = []
        self.counts: Counter = Counter()
        self.failures: list[tuple[str, str, str]] = []  # (case, layer, message)
        self.known_defects: list[tuple[str, str, str]] = []  # (probe, layer, message) still showing
        self.fixed_defects: list[str] = []  # probes of known defects that passed
        self.attempted = 0
        self.ladder: dict[str, dict] = {}  # ROADMAP baseline rows, for the report

    def start_case(self, slice_before: bool = True) -> None:
        """Open a new case, after a calibration slice unless it is a subprocess call."""
        self.attempted += 1
        self.case_id += 1
        if slice_before:
            self._slice_of[self.case_id] = len(self.calib_ns)
            self.calib_ns.append(calibration_slice())

    def factor(self, case: int) -> float:
        """Reference speed / measured speed around a case: the mean of the
        calibration slices taken just before and just after it."""
        i = self._slice_of[case]
        around = self.calib_ns[i : i + 2]
        return REFERENCE_CALIBRATION_NS * len(around) / sum(around)

    def finish(self) -> None:
        """A last slice, so that the last case has one after it too."""
        self.calib_ns.append(calibration_slice())

    def start_round(self) -> None:
        self.round_starts.append(len(self.cases))

    # -- timing ---------------------------------------------------------

    def call(self, name: str, fn, /, *args, **kwargs):
        """Call into orbikit; a span around it when tracing."""
        try:
            if not self.traced:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        except Exception as exc:
            if not hasattr(exc, "bench_call"):
                exc.bench_call = name
            raise

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.case_id])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def _timed(self, pipeline, traced: bool):
        """Time one pass of `pipeline`, traced or not; `self.traced` is restored after it."""
        saved, self.traced = self.traced, traced
        try:
            start = time.perf_counter_ns()
            if traced:
                with self.span("case"):
                    out = pipeline(self)
            else:
                out = pipeline(self)
            return time.perf_counter_ns() - start, out
        finally:
            self.traced = saved

    # -- cases ----------------------------------------------------------

    def run_case(self, label: str, pipeline, check, sectors: int = 0, replay=None, layer=None) -> None:
        """Time `pipeline(rec)`, then check its output outside the timed region.

        `check(out)` raises CaseFailure on a mismatch.  A traced run runs the
        pipeline untraced and traced, in alternating order, to measure the
        tracing overhead, then `replay(rec, out)` if given: the public steps
        of a CLI call, traced but not counted in the case time.  A failure
        is charged to `layer` if given, else to the layer that raised or
        whose output was wrong.  Sectors count only for cases that pass.
        """
        self.start_case()
        timed = None
        try:
            if self.traced:
                if self.case_id % 2:
                    plain_ns, _ = self._timed(pipeline, traced=False)
                    ns, out = self._timed(pipeline, traced=True)
                else:
                    ns, out = self._timed(pipeline, traced=True)
                    plain_ns, _ = self._timed(pipeline, traced=False)
                self.paired.append((plain_ns, ns))
                if replay is not None:
                    with self.span("replay"):
                        replay(self, out)
            else:
                ns, out = self._timed(pipeline, traced=False)
            timed = ns
            check(out)
        except Exception as exc:
            if isinstance(exc, CaseFailure):
                self.fail(label, layer or exc.layer, str(exc))
            else:  # an unexpected exception is a failed case
                name = getattr(exc, "bench_call", "cli.main")
                self.fail(label, layer or name.split(".")[0], f"{type(exc).__name__}: {exc}")
            if timed is not None:
                self.cases.append((self.case_id, timed, 0))
        else:
            self.cases.append((self.case_id, timed, sectors))

    def fail(self, case: str, layer: str, message: str) -> None:
        self.failures.append((case, layer, message.splitlines()[0][:200] if message else ""))

    # -- summaries ------------------------------------------------------

    def case_times(self) -> list[tuple[float, int]]:
        """(reference-speed ns, sectors) of every timed case, in run order."""
        return [(ns * self.factor(case), sectors) for case, ns, sectors in self.cases]

    def self_times(self) -> list[tuple[str, float, int]]:
        """(name, self time at reference speed in ns, case id) of every span.

        Self time is the span's duration minus the time its children cover.
        """
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (name, (end - start - covered[i]) * self.factor(case), case)
            for i, (name, start, end, parent, case) in enumerate(self.spans)
        ]
