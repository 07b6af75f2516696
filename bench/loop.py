"""The closed loop: one client thread driving ``service.query`` pass by pass,
checking every answer against the oracle, and the end-to-end metrics."""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

from workloads import MUTATION_VIEW, Fixture, Spec, build, pass_operations

#: warm-up before any timed window: two passes of the battery, always
WARMUP_PASSES = 2
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: the mutation probe of workloads that do not mutate: add/drop pairs for
#: at least this many pairs and this many seconds
PROBE_MUTATIONS = 20
PROBE_SECONDS = 0.5
#: the calibration kernel (README, "Reference-machine time"): its size, and
#: the seconds it takes on the idle sandbox the bounds were measured on
KERNEL_ITERATIONS = 60_000
KERNEL_SECONDS = 0.0076
#: the kernel is timed around every pass and this often (seconds) inside it
KERNEL_EVERY = 0.1


def percentile(samples: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def kernel() -> tuple:
    """Time the calibration kernel: ``(wall seconds, CPU seconds)`` of a
    fixed piece of interpreter-bound work that calls nothing of the
    program and allocates nothing the garbage collector tracks."""
    wall_started, cpu_started = time.perf_counter(), time.process_time()
    table: dict = {}
    digits = 0
    for i in range(KERNEL_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        if not i & 7:
            digits += len(str(i))
    return time.perf_counter() - wall_started, time.process_time() - cpu_started


def machine_speed(timings: list) -> tuple:
    """``(wall, CPU)`` speed of the machine over some kernel timings,
    relative to the reference machine (below 1 = slower)."""
    return tuple(KERNEL_SECONDS / statistics.fmean(clock) for clock in zip(*timings))


@dataclass
class Pass:
    """One pass over the battery.  ``wall``, ``cpu`` and ``latencies`` are
    as measured; the statistics are in reference-machine time."""

    wall: float
    cpu: float
    latencies: list  # seconds, one per correct answer
    wall_speed: float
    cpu_speed: float

    def qps(self) -> float:
        return len(self.latencies) / (self.wall * self.wall_speed)

    def p50(self) -> float:
        return percentile(self.latencies, 50) * self.wall_speed

    def p95(self) -> float:
        return percentile(self.latencies, 95) * self.wall_speed

    def cpu_per_query(self) -> float:
        return self.cpu * self.cpu_speed / len(self.latencies)


@dataclass
class Window:
    """What one timed window observed."""

    attempted: int = 0
    failed: int = 0
    passes: list = field(default_factory=list)
    add_seconds: list = field(default_factory=list)
    drop_seconds: list = field(default_factory=list)
    #: patterns answered from views / all patterns, over executed queries
    view_patterns: int = 0
    patterns: int = 0
    #: the kernel timing that closed the last pass (and opens the next)
    kernel: tuple = ()
    #: machine speed during the mutation probe (0: the mutations are the
    #: window's own, spread over its passes)
    mutation_speed: float = 0.0

    def wall_speed(self) -> float:
        return statistics.median(one.wall_speed for one in self.passes)

    @property
    def latencies(self) -> list:
        return [s for one in self.passes for s in one.latencies]

    @property
    def mutations(self) -> int:
        return len(self.add_seconds) + len(self.drop_seconds)

    def view_resolution_ratio(self) -> float:
        return self.view_patterns / self.patterns if self.patterns else 0.0


def mutate(fixture: Fixture, operation: str, window: Window) -> None:
    """One catalog mutation through the service (plan purge included)."""
    name, text = MUTATION_VIEW
    window.attempted += 1
    started = time.perf_counter()
    try:
        if operation == "add":
            fixture.service.add_view(name, text)
        else:
            fixture.service.drop_view(name)
    except Exception:
        window.failed += 1
        return
    elapsed = time.perf_counter() - started
    (window.add_seconds if operation == "add" else window.drop_seconds).append(
        elapsed
    )


def run_pass(fixture: Fixture, operations: list, window: Window, on_query=None):
    """Run one pass and append it to the window.  ``on_query`` is told the
    id of each query before it is sent (None before a mutation)."""
    latencies = []
    timings = [window.kernel or kernel()]
    wall_started = checked = time.perf_counter()
    cpu_started = time.process_time()
    for operation in operations:
        if time.perf_counter() - checked >= KERNEL_EVERY:
            timings.append(kernel())
            checked = time.perf_counter()
        query_id = None if isinstance(operation, str) else window.attempted + 1
        if on_query is not None:
            on_query(query_id)
        if query_id is None:
            mutate(fixture, operation, window)
            continue
        qid, text = operation
        window.attempted += 1
        started = time.perf_counter()
        try:
            result = fixture.service.query(text, physical=True)
        except Exception:
            window.failed += 1
            continue
        elapsed = time.perf_counter() - started
        window.patterns += len(result.resolutions)
        window.view_patterns += sum(
            1 for resolution in result.resolutions if resolution.rewriting
        )
        if fixture.check(qid, result):
            latencies.append(elapsed)
        else:
            window.failed += 1
    # the kernel timings taken inside the pass are not the program's time
    wall = time.perf_counter() - wall_started - sum(w for w, _ in timings[1:])
    cpu = time.process_time() - cpu_started - sum(c for _, c in timings[1:])
    window.kernel = kernel()
    timings.append(window.kernel)
    window.passes.append(Pass(wall, cpu, latencies, *machine_speed(timings)))


def run_window(
    fixture: Fixture, rng: random.Random, seconds: float, on_query=None
) -> Window:
    """Whole passes until ``seconds`` have elapsed (at least one); the
    window ends on the pass boundary nearest to the budget, with the
    catalog as set-up built it."""
    window = Window()
    started = time.perf_counter()
    while True:
        run_pass(fixture, pass_operations(fixture.spec, rng), window, on_query)
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * window.passes[-1].wall >= seconds:
            break
    if MUTATION_VIEW[0] in fixture.db.views():
        fixture.service.drop_view(MUTATION_VIEW[0])
    return window


def warm_up(fixture: Fixture, rng: random.Random) -> Window:
    """Two battery passes without mutations, answers checked."""
    window = Window()
    for _ in range(WARMUP_PASSES):
        battery = list(fixture.spec.queries)
        rng.shuffle(battery)
        run_pass(fixture, battery, window)
    return window


def set_up(spec: Spec, seed: int, rng: random.Random, reference=None):
    """One full set-up: build the fixture and warm it up.  Returns the
    fixture, the warm-up window and the set-up time (oracle excluded) in
    reference-machine seconds."""
    before = kernel()
    fixture = build(spec, seed, reference)
    after = kernel()
    warm = warm_up(fixture, rng)
    build_speed, _cpu_speed = machine_speed([before, after])
    seconds = sum(fixture.steps.values()) * build_speed + sum(
        one.wall * one.wall_speed for one in warm.passes
    )
    return fixture, warm, seconds


def over_passes(window: Window, value) -> float:
    """Median over the window's passes of ``value(pass)``."""
    passes = [one for one in window.passes if one.latencies]
    if not passes:  # nothing answered correctly; the run reports failure
        return 0.0
    return statistics.median(value(one) for one in passes)


def end_to_end(window: Window, setup_seconds: list) -> dict:
    """The end-to-end metrics of one untraced run (name → value).

    Every timing is taken per pass and the median over passes is
    reported: a battery of a few dozen queries has a lumpy latency
    distribution, and a pooled percentile sitting between two lumps jumps
    from one to the other with the slightest disturbance."""
    # an add materialises, a drop does not: the mean of the two medians
    mutation = statistics.fmean(
        statistics.median(samples) if samples else 0.0
        for samples in (window.add_seconds, window.drop_seconds)
    ) * (window.mutation_speed or window.wall_speed())
    rusage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "throughput_qps": over_passes(window, Pass.qps),
        "latency_p50_ms": 1000.0 * over_passes(window, Pass.p50),
        "latency_p95_ms": 1000.0 * over_passes(window, Pass.p95),
        "cpu_ms_per_query": 1000.0 * over_passes(window, Pass.cpu_per_query),
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
        "mutation_p50_ms": 1000.0 * mutation,
    }


def sample_counts(window: Window, setup_seconds: list) -> dict:
    """The sample count behind every metric (reported beside it)."""
    return {
        "throughput_qps": len(window.passes),
        "latency_p50_ms": len(window.latencies),
        "latency_p95_ms": len(window.latencies),
        "cpu_ms_per_query": len(window.passes),
        "setup_s": len(setup_seconds),
        "peak_rss_mb": 1,
        "mutation_p50_ms": window.mutations,
    }


def probe_mutations(fixture: Fixture, window: Window) -> None:
    """Add/drop pairs after the window, so that ``mutation_p50_ms`` is
    defined on a workload whose window holds no mutation."""
    timings = [kernel()]
    started = time.perf_counter()
    pairs = 0
    while pairs < PROBE_MUTATIONS or time.perf_counter() - started < PROBE_SECONDS:
        mutate(fixture, "add", window)
        mutate(fixture, "drop", window)
        pairs += 1
    timings.append(kernel())
    window.mutation_speed, _cpu_speed = machine_speed(timings)


def run_untraced(spec: Spec, seed: int, seconds: float, repeats: int = SETUP_REPEATS):
    """The end-to-end run: set up ``repeats`` times (the last set-up is the
    one measured), run the window, then — on a workload that has none of
    its own — a short add/drop burst so ``mutation_p50_ms`` is defined.
    Warm-up answers count as attempts too.
    Returns ``(window, warm-up window, set-up seconds)``."""
    rng = random.Random(f"{spec.name}:{seed}")
    setup_seconds = []
    reference = None
    fixture = None
    for _ in range(repeats):
        if fixture is not None:
            fixture.close()
            fixture = None
            # document trees are cyclic: without this, when the previous
            # set-up is freed — and so peak_rss_mb — is left to chance
            gc.collect()
        fixture, warm, took = set_up(spec, seed, rng, reference)
        reference = fixture.reference
        setup_seconds.append(took)
    try:
        window = run_window(fixture, rng, seconds)
        if not spec.mutate:
            probe_mutations(fixture, window)
    finally:
        fixture.close()
    window.attempted += warm.attempted
    window.failed += warm.failed
    return window, warm, setup_seconds
