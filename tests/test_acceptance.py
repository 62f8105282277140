"""End-to-end behavioral checks, one summary line each.

Every test here verifies one externally stated capability at its stated
tolerance, against an independent oracle where one exists (exhaustive
search, bisection, full scans). The summary lines are replayed by the
terminal hook in conftest.
"""

import math
import time

import numpy as np
from scipy.stats import spearmanr

from scenq import (
    ActorClass,
    ActorTrack,
    ApplicationPeriod,
    QualityCriterion,
    ScalarResult,
    StopRule,
    Threshold,
    Trace,
    aggregate,
    build_encroachment_zone,
    concretize,
    condition,
    detect_result_gaps,
    evaluate_criterion,
    parameter_coverage,
    pet,
    registry,
    repeatability_report,
    simulate,
)
from scenq.macro import dtw as dtw_distance
from scenq.nano import braking_distance, braking_time, ttc, wttc


# --- 1: logical scenario expansion ----------------------------------------


def test_logical_expansion_full_grid_fast(intersection_logical, record_acceptance):
    t0 = time.perf_counter()
    runs = concretize(intersection_logical)
    elapsed = time.perf_counter() - t0
    target = {"v_max": 32.0, "t_cross": 5.0, "d_start": 16.0}
    hit = any(
        all(r.bindings[k] == v for k, v in target.items()) for r in runs
    )
    unique = len({r.scenario_id for r in runs}) == len(runs)
    ok = len(runs) == 600 and hit and unique and elapsed < 1.0
    record_acceptance(
        ok, "scenario expansion",
        f"{len(runs)} runs, target cell {'present' if hit else 'MISSING'}, "
        f"{elapsed * 1e3:.1f} ms",
    )
    assert len(runs) == 600
    assert hit and unique
    assert elapsed < 1.0


# --- 2: post encroachment time from staggered occupancy --------------------


def staggered_crossing(ped_entry_time: float, dt: float = 0.01) -> Trace:
    """Car exits the conflict zone at t=26; the walker enters at the
    requested time. Constant speeds 1 m/s on perpendicular straight paths."""
    duration = ped_entry_time + 6.0
    n = int(round(duration / dt)) + 1
    times = np.arange(n) * dt
    car = ActorTrack(
        "car", ActorClass.VEHICLE, 1.0, times,
        xs=-12.7 + times, ys=np.zeros(n), headings=np.zeros(n),
        speeds=np.ones(n), accels=np.zeros(n),
    )
    y0 = -1.3 - ped_entry_time
    walker = ActorTrack(
        "walker", ActorClass.PEDESTRIAN, 0.3, times,
        xs=np.full(n, 12.0), ys=y0 + times, headings=np.full(n, math.pi / 2),
        speeds=np.ones(n), accels=np.zeros(n),
    )
    return Trace("staggered", dt, {"car": car, "walker": walker})


def test_pet_value_and_threshold_verdicts(record_acceptance):
    dt = 0.01
    trace = staggered_crossing(ped_entry_time=29.0, dt=dt)
    zone = build_encroachment_zone(trace, "car", "walker")
    result = pet(trace, "car", "walker", zone)
    crit = QualityCriterion("pet_margin", "pet", Threshold(">", 1.5, unit="s"))
    verdict_ok = evaluate_criterion(crit, result)

    tight = staggered_crossing(ped_entry_time=27.4, dt=dt)
    tight_result = pet(tight, "car", "walker",
                       build_encroachment_zone(tight, "car", "walker"))
    verdict_tight = evaluate_criterion(crit, tight_result)

    ok = (
        result.defined
        and abs(result.value - 3.0) <= dt
        and verdict_ok.outcome == "pass"
        and abs(tight_result.value - 1.4) <= dt
        and verdict_tight.outcome == "fail"
    )
    record_acceptance(
        ok, "post encroachment time",
        f"pet {result.value:.6f} s, margin verdict {verdict_ok.outcome}, "
        f"tightened pet {tight_result.value:.3f} s verdict {verdict_tight.outcome}",
    )
    assert abs(result.value - 3.0) <= dt
    assert verdict_ok.outcome == "pass"
    assert verdict_tight.outcome == "fail"


# --- 3: crossing duration scales with its parameter over the batch ---------


def test_encroachment_time_tracks_crossing_parameter(batch600, record_acceptance):
    scenarios, outcomes, elapsed = batch600
    spec = registry.get("et")
    params = {"actor": "pedestrian", "other": "ego", "inflation": 0.0}
    per_t_cross: dict[float, list[float]] = {}
    pairs = []
    for scenario, outcome in zip(scenarios, outcomes):
        result = spec.compute(outcome.trace, params)
        if not result.defined:
            continue
        t_cross = scenario.bindings["t_cross"]
        pairs.append((t_cross, result.value))
        per_t_cross.setdefault(t_cross, []).append(result.value)
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    rho = float(spearmanr(xs, ys)[0])
    spread = max(max(v) - min(v) for v in per_t_cross.values())
    ok = rho >= 0.9 and spread <= 0.1 and elapsed < 120.0 and len(pairs) >= 500
    record_acceptance(
        ok, "batch encroachment time",
        f"{len(pairs)} defined of {len(outcomes)}, spearman {rho:.3f}, "
        f"max same-parameter spread {spread:.2e} s, batch {elapsed:.1f} s",
    )
    assert rho >= 0.9
    assert spread <= 0.1
    assert elapsed < 120.0


# --- 4: run-to-run repeatability and drift detection ------------------------


def truncate_track(track: ActorTrack, n: int) -> ActorTrack:
    return ActorTrack(track.actor_id, track.actor_class, track.radius,
                      track.times[:n], track.xs[:n], track.ys[:n],
                      track.headings[:n], track.speeds[:n], track.accels[:n])


def test_repeatability_zero_and_drift_flagged(intersection_config, record_acceptance):
    bindings = {"v_max": 30.0, "t_cross": 9.0, "d_start": 24.0}
    runs = [simulate(bindings, intersection_config) for _ in range(11)]
    reference = runs[0].trace
    report = repeatability_report(reference, [r.trace for r in runs[1:]],
                                  threshold=10.0)
    distances = {e.dtw_distance for e in report.entries}
    exact_zero = distances == {0.0} and len(report.entries) == 20

    n = 2000
    assert len(reference.track("ego")) >= n
    base = Trace("base", reference.time_step,
                 {a: truncate_track(reference.track(a), n) for a in reference.actor_ids()})
    drift_tracks = {}
    for actor in base.actor_ids():
        t = base.track(actor)
        ox = 0.02 * np.cos(t.headings + math.pi / 2)
        oy = 0.02 * np.sin(t.headings + math.pi / 2)
        drift_tracks[actor] = ActorTrack(actor, t.actor_class, t.radius, t.times,
                                         t.xs + ox, t.ys + oy, t.headings,
                                         t.speeds, t.accels)
    drifted = Trace("drifted", base.time_step, drift_tracks)
    drift_report = repeatability_report(base, [drifted], threshold=10.0)
    drift_values = [e.dtw_distance for e in drift_report.entries]
    flagged = all(not e.within_threshold for e in drift_report.entries)
    in_band = all(32.0 <= d <= 48.0 for d in drift_values)

    ok = exact_zero and flagged and in_band
    record_acceptance(
        ok, "repeatability",
        f"10 repeats dtw {sorted(distances)}, 0.02 m offset over {n} steps "
        f"dtw {[f'{d:.1f}' for d in drift_values]} m, flagged {flagged}",
    )
    assert exact_zero
    assert flagged and in_band


# --- 5: warping distance equals exhaustive path search ----------------------


def exhaustive_dtw(a: np.ndarray, b: np.ndarray) -> float:
    """Minimum over every monotone warp path, costs summed in path order."""
    n, m = len(a), len(b)
    dist = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    best = math.inf

    def walk(i: int, j: int, acc: float) -> None:
        nonlocal best
        acc = acc + dist[i, j]
        if i == n - 1 and j == m - 1:
            best = min(best, acc)
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best


def as_track(points: np.ndarray, actor_id: str) -> ActorTrack:
    n = len(points)
    return ActorTrack(actor_id, ActorClass.VEHICLE, 1.0,
                      np.arange(n, dtype=float), points[:, 0], points[:, 1],
                      np.zeros(n), np.zeros(n), np.zeros(n))


def test_dtw_equals_exhaustive_enumeration(rng, record_acceptance):
    mismatches = 0
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        a = rng.normal(scale=5.0, size=(n, 2))
        b = rng.normal(scale=5.0, size=(m, 2))
        fast = dtw_distance(as_track(a, "a"), as_track(b, "b"))
        slow = exhaustive_dtw(a, b)
        if fast != slow:
            mismatches += 1
            worst = max(worst, abs(fast - slow))
    ok = mismatches == 0
    record_acceptance(
        ok, "warping distance oracle",
        f"100 instances up to 6x6, {mismatches} mismatches"
        + ("" if ok else f", worst {worst:.3e}"),
    )
    assert mismatches == 0


# --- 6: worst-case time to collision ----------------------------------------


def two_sample_trace(target_pos, target_vel) -> Trace:
    times = np.array([0.0, 0.01])
    ego = ActorTrack("ego", ActorClass.VEHICLE, 1.0, times,
                     xs=np.zeros(2), ys=np.zeros(2), headings=np.zeros(2),
                     speeds=np.zeros(2), accels=np.zeros(2))
    speed = math.hypot(*target_vel)
    heading = math.atan2(target_vel[1], target_vel[0]) if speed > 0 else 0.0
    tx = np.array([target_pos[0], target_pos[0] + target_vel[0] * 0.01])
    ty = np.array([target_pos[1], target_pos[1] + target_vel[1] * 0.01])
    target = ActorTrack("target", ActorClass.VEHICLE, 1.0, times,
                        xs=tx, ys=ty, headings=np.full(2, heading),
                        speeds=np.full(2, speed), accels=np.zeros(2))
    return Trace("enc", 0.01, {"ego": ego, "target": target})


def test_wttc_closed_form_and_ttc_bound(rng, record_acceptance):
    # standing vehicle/pedestrian pair: first possible contact at
    # sqrt((distance - radii) / (half the summed acceleration bounds))
    times = np.array([0.0, 0.01])
    ego = ActorTrack("ego", ActorClass.VEHICLE, 1.0, times,
                     xs=np.zeros(2), ys=np.zeros(2), headings=np.zeros(2),
                     speeds=np.zeros(2), accels=np.zeros(2))
    ped = ActorTrack("ped", ActorClass.PEDESTRIAN, 0.3, times,
                     xs=np.full(2, 23.05), ys=np.zeros(2), headings=np.zeros(2),
                     speeds=np.zeros(2), accels=np.zeros(2))
    static = wttc(Trace("static", 0.01, {"ego": ego, "ped": ped}), "ego", "ped")
    expect = math.sqrt(4.35)
    static_err = abs(static.values[0] - expect)

    # sampled constant-velocity encounters: the worst-case estimate must
    # never be later than the plain linear one
    checked = 0
    violations = 0
    lateral_cap = 0.9 * math.sqrt(16.0 * 2.0)
    # the worst-case root is solved exactly up to floating-point rounding,
    # so the inequality is checked at that resolution
    root_tol = 1e-9
    for _ in range(1000):
        c = rng.uniform(0.5, 15.0)
        u = rng.uniform(0.5, 15.0)
        w = rng.uniform(-lateral_cap, lateral_cap)
        trace = two_sample_trace((c, 0.0), (-u, w))
        lin = ttc(trace, "ego", "target")
        worst = wttc(trace, "ego", "target")
        if lin.defined[0] and worst.defined[0]:
            checked += 1
            if worst.values[0] > lin.values[0] + root_tol:
                violations += 1
    ok = static_err <= 1e-3 and violations == 0 and checked >= 500
    record_acceptance(
        ok, "worst-case time to collision",
        f"static root error {static_err:.2e} s, "
        f"{checked} comparable encounters, {violations} above the linear bound",
    )
    assert static_err <= 1e-3
    assert violations == 0


# --- 7: start position sweep ------------------------------------------------


def test_sweep_monotone_and_boundary_finding(sweep_runs, sweep_config,
                                             record_acceptance):
    wttc_spec = registry.get("wttc")
    gap_spec = registry.get("gap_time")
    params = {"ego": "ego", "target": "pedestrian"}
    rows = []
    for x, outcome in sweep_runs:
        min_wttc = aggregate(wttc_spec.compute(outcome.trace, params), "min")
        min_gap = aggregate(gap_spec.compute(outcome.trace, params), "min")
        triggered = "ped_crossing_started" in outcome.events
        rows.append((x, min_wttc, min_gap, triggered))

    triggered_rows = [(x, w.value) for x, w, _, t in rows if t and w.defined]
    rho = float(spearmanr([r[0] for r in triggered_rows],
                          [r[1] for r in triggered_rows])[0])

    findings = detect_result_gaps([(x, g) for x, _, g, _ in rows],
                                  parameter="ego_start_x")

    # independent bisection for the boundary where the walker stops triggering
    bindings = {"v_max": 58.0, "t_cross": 3.0, "d_start": 16.0}

    def triggered_at(x: float) -> bool:
        out = simulate({**bindings, "ego_start_x": x}, sweep_config)
        return "ped_crossing_started" in out.events

    lo, hi = 38.0, 78.0
    assert triggered_at(lo) and not triggered_at(hi)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if triggered_at(mid):
            lo = mid
        else:
            hi = mid
    boundary = 0.5 * (lo + hi)

    step = 1.0
    at_boundary = [
        f for f in findings
        if f.left_value - step <= boundary <= f.right_value + step
        and (f.left_value <= boundary <= f.right_value
             or min(abs(f.left_value - boundary), abs(f.right_value - boundary)) <= step)
    ]
    bracketing = [f for f in at_boundary if f.left_value <= boundary <= f.right_value]
    ok = rho >= 0.8 and len(bracketing) >= 1
    record_acceptance(
        ok, "start position sweep",
        f"{len(triggered_rows)} triggered runs, spearman {rho:.4f}, "
        f"boundary {boundary:.3f} m, findings at boundary "
        f"{[(f.left_value, f.right_value) for f in bracketing]}",
    )
    assert rho >= 0.8
    assert len(bracketing) >= 1
    within = min(abs(bracketing[0].left_value - boundary),
                 abs(bracketing[0].right_value - boundary))
    assert within <= step


# --- 8: braking definedness and arrival gap termination ---------------------


def test_braking_definedness_and_gap_termination(reference_outcome,
                                                 record_acceptance):
    trace = reference_outcome.trace
    ego = trace.track("ego")
    bt = braking_time(trace, "ego")
    bd = braking_distance(trace, "ego")
    oracle = ego.accels < 0.0

    mism_bt = np.flatnonzero(bt.defined != oracle)
    mism_bd = np.flatnonzero(bd.defined != oracle)
    # the only tolerated disagreement is a vanishing recorded deceleration
    tolerable = lambda idx: np.all(np.abs(ego.accels[idx]) <= 1e-6)
    masks_ok = tolerable(mism_bt) and tolerable(mism_bd)

    sel = bt.defined
    values_ok = np.allclose(
        bt.values[sel], ego.speeds[sel] / np.abs(ego.accels[sel])
    ) and np.allclose(
        bd.values[sel], ego.speeds[sel] ** 2 / (2 * np.abs(ego.accels[sel]))
    )

    gap = registry.get("gap_time").compute(
        trace, {"ego": "ego", "target": "pedestrian"}
    )
    t_pass = reference_outcome.events["ped_passed_conflict"]
    dt = trace.time_step
    defined_times = gap.times[gap.defined]
    last_defined = float(defined_times[-1])
    none_after = not gap.defined[gap.times > t_pass + dt / 2].any()
    termination_ok = abs(last_defined - t_pass) <= 2 * dt and none_after

    ok = masks_ok and values_ok and termination_ok
    record_acceptance(
        ok, "braking and gap series",
        f"braking mask mismatches {len(mism_bt)}/{len(mism_bd)} (all ~0 accel), "
        f"gap series last defined {last_defined:.2f} s vs conflict passage "
        f"{t_pass:.2f} s",
    )
    assert masks_ok
    assert values_ok
    assert termination_ok


# --- 9: aggregation and coverage oracles -------------------------------------


def test_aggregation_and_coverage_oracles(intersection_logical, rng,
                                          record_acceptance):
    agg_mismatch = 0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        values = rng.normal(scale=100.0, size=n)
        defined = rng.random(n) < 0.7
        if not defined.any():
            defined[int(rng.integers(0, n))] = True
        times = np.cumsum(rng.uniform(0.01, 1.0, size=n))
        from scenq import MetricSeries

        series = MetricSeries("ttc", ("a", "b"), "s", times, values, defined)
        picked = [v for v, d in zip(values, defined) if d]
        if aggregate(series, "min").value != min(picked):
            agg_mismatch += 1
        if aggregate(series, "max").value != max(picked):
            agg_mismatch += 1

    runs = concretize(intersection_logical)
    full = parameter_coverage(intersection_logical, runs)
    empty = parameter_coverage(intersection_logical, [])
    coverage_edges = full.overall == 1.0 and empty.overall == 0.0

    monotone_violations = 0
    for _ in range(200):
        k = int(rng.integers(0, len(runs)))
        idx = rng.choice(len(runs), size=k, replace=False)
        subset = [runs[i] for i in idx]
        extra_idx = rng.choice(len(runs), size=int(rng.integers(1, 30)))
        larger = subset + [runs[i] for i in extra_idx]
        small = parameter_coverage(intersection_logical, subset)
        big = parameter_coverage(intersection_logical, larger)
        if big.overall < small.overall:
            monotone_violations += 1
        for name in small.per_parameter:
            if big.per_parameter[name] < small.per_parameter[name]:
                monotone_violations += 1

    ok = agg_mismatch == 0 and coverage_edges and monotone_violations == 0
    record_acceptance(
        ok, "aggregation and coverage",
        f"1000 series min/max exact, full grid {full.overall}, empty "
        f"{empty.overall}, {monotone_violations} monotonicity violations in 200 draws",
    )
    assert agg_mismatch == 0
    assert coverage_edges
    assert monotone_violations == 0


# --- 10: verdict invariances --------------------------------------------------


def test_verdict_invariances(rng, record_acceptance):
    comparators = ("<", "<=", ">", ">=", "=")
    opposites = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}
    rescale_violations = 0
    flip_violations = 0
    for i in range(500):
        comp = comparators[int(rng.integers(0, len(comparators)))]
        bound = float(rng.uniform(-100.0, 100.0))
        if comp == "=" and i % 2 == 0:
            value = bound
        else:
            value = float(rng.uniform(-100.0, 100.0))
            if abs(value - bound) < 1e-6 * max(1.0, abs(bound)):
                value = bound + (1.0 if value >= bound else -1.0)
        factor = float(np.exp(rng.uniform(-3.0, 3.0)))
        crit = QualityCriterion("c", "pet", Threshold(comp, bound))
        scaled = QualityCriterion("c", "pet", Threshold(comp, bound * factor))
        base = evaluate_criterion(crit, ScalarResult("pet", value, "s"))
        rescaled = evaluate_criterion(scaled, ScalarResult("pet", value * factor, "s"))
        if base.outcome != rescaled.outcome:
            rescale_violations += 1
        if comp != "=" and value != bound:
            anti = QualityCriterion("c", "pet", Threshold(opposites[comp], bound))
            flipped = evaluate_criterion(anti, ScalarResult("pet", value, "s"))
            if {base.outcome, flipped.outcome} != {"pass", "fail"}:
                flip_violations += 1

    # a start condition that never becomes true leaves the criterion idle
    n = 11
    times = np.arange(n) * 1.0
    ego = ActorTrack("ego", ActorClass.VEHICLE, 1.0, times,
                     xs=times * 2.0, ys=np.zeros(n), headings=np.zeros(n),
                     speeds=np.full(n, 2.0), accels=np.zeros(n))
    trace = Trace("idle", 1.0, {"ego": ego})
    vacuous = QualityCriterion(
        "never", "pet", Threshold(">", 0.0, unit="s"),
        application_period=ApplicationPeriod(
            condition("speed", ">", 99.0, actor="ego"),
            stop=StopRule(kind="elapsed", duration=1.0),
        ),
    )
    verdict = evaluate_criterion(vacuous, ScalarResult("pet", 123.0, "s"), trace)
    vacuous_ok = verdict.outcome == "not_applicable"

    ok = rescale_violations == 0 and flip_violations == 0 and vacuous_ok
    record_acceptance(
        ok, "verdict invariances",
        f"500 rescaled pairs, {rescale_violations} changed verdicts, "
        f"{flip_violations} bad negations, vacuous period -> {verdict.outcome}",
    )
    assert rescale_violations == 0
    assert flip_violations == 0
    assert vacuous_ok
