"""Output checks for the three workloads, computed from the artifacts alone.

Nothing here imports platoonsim: every expected value is recomputed from
the records the command wrote and the config the benchmark generated, or
is a property any correct schedule must have. Each check function returns
a list of problems; an empty list means the artifacts passed.

CSV cells carry 10 significant digits, so a value read back differs from
the one computed by up to 5e-10 of its magnitude; the tolerances below add
that rounding to the stated ones and no more.
"""
from __future__ import annotations

import csv
import json
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

N_BATCHES = 20
T_95_19DF = 2.093               # Student-t 0.975 quantile, 19 degrees of freedom
REL_TOL = 1e-8                  # recomputed statistic against a 10-digit CSV cell
HEADWAY_TOL = 1e-9              # crossing headways from full-precision JSON (s)
SPACE_TOL = 1e-6                # separation, continuity and end-point tolerance
ROUND = 5e-10                   # relative rounding of a 10-significant-digit cell
POISSON_SE = 4.0                # allowed lane-count deviation, in standard errors

RUN_CSV_HEADER = ["rho", "discipline", "lane", "sim_delay_mean", "ci95",
                  "approx_delay", "fairness", "n_vehicles", "seed"]
APPROX_DISCIPLINES = ("exhaustive", "gated")


# ===================== shared formulas =====================

def lane_params(cfg: Dict[str, object]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-lane (lambda, B, S) arrays from a generated config."""
    n = int(cfg["n"])
    lam = np.asarray(cfg["lambda"], float)

    def per_lane(v: object) -> np.ndarray:
        return np.full(n, float(v)) if np.isscalar(v) else np.asarray(v, float)

    return lam, per_lane(cfg["B"]), per_lane(cfg["S"])


def interpolated_delays(lam: np.ndarray, B: np.ndarray, S: np.ndarray,
                        discipline: str) -> Tuple[List[float], float]:
    """The paper's interpolation (K1 rho + K2 rho^2) / (1 - rho) per lane.

    Deterministic B and S, so residuals are B/2 and S/2. K1 is the
    light-traffic slope under the hatted load split, omega the
    heavy-traffic constant and K2 = omega - K1. Returns the lane values
    and their arrival-weighted mean.
    """
    rho_i = lam * B
    rho = float(rho_i.sum())
    rh = rho_i / rho
    lh = rh / B
    sigma2 = float((lh * B * B).sum())
    if discipline == "exhaustive":
        base = sigma2 / float((rh * (1.0 - rh)).sum()) + float(S.sum())
        omegas = (1.0 - rh) / 2.0 * base
    else:
        base = sigma2 / float((rh * (1.0 + rh)).sum()) + float(S.sum())
        omegas = (1.0 + rh) / 2.0 * base
    lanes = []
    for i in range(lam.size):
        k1 = rh[i] * B[i] / 2.0
        for j in range(lam.size):
            if j != i:
                k1 += rh[j] * (B[j] / 2.0 + S[i]) + lh[j] * S[i] * S[i] / 2.0
        k2 = omegas[i] - k1
        lanes.append(float((k1 * rho + k2 * rho * rho) / (1.0 - rho)))
    overall = float((lam * np.asarray(lanes)).sum() / lam.sum())
    return lanes, overall


def batch_means_ci(x: np.ndarray) -> float:
    """95% half-width from 20 contiguous batch means (first N mod 20 one longer)."""
    n = x.size
    if n < 2 * N_BATCHES:
        return math.nan
    size, extra = divmod(n, N_BATCHES)
    means, lo = [], 0
    for k in range(N_BATCHES):
        hi = lo + size + (1 if k < extra else 0)
        means.append(math.fsum(x[lo:hi]) / (hi - lo))
        lo = hi
    centre = math.fsum(means) / N_BATCHES
    sd = math.sqrt(math.fsum((m - centre) ** 2 for m in means) / (N_BATCHES - 1))
    return T_95_19DF * sd / math.sqrt(N_BATCHES)


def _mean(x: np.ndarray) -> float:
    return math.fsum(x) / x.size if x.size else math.nan


def _cell(text: str) -> Optional[float]:
    return float(text) if text != "" else None


def _close(got: Optional[float], want: float, rel: float = REL_TOL) -> bool:
    if got is None:
        return False
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def read_csv(path: str) -> Tuple[List[str], List[Dict[str, str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, [dict(zip(header, row)) for row in reader]


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


# ===================== run-jsonl =====================

def read_vehicles(path: str) -> Dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        records = json.loads("[" + ",".join(fh.read().splitlines()) + "]")
    return {
        key: np.array([r[key] for r in records], dtype=np.int64 if key in ("id", "lane") else float)
        for key in ("id", "lane", "entry_t", "a", "c", "delay")
    }


def check_run(cfg: Dict[str, object], out_dir: str) -> List[str]:
    """vehicles.jsonl and results.csv of one `platoonsim run`."""
    problems: List[str] = []
    lam, B, S = lane_params(cfg)
    n_lanes = lam.size
    horizon = int(cfg["horizon_vehicles"])
    warmup = int(cfg["warmup_vehicles"])
    try:
        veh = read_vehicles(os.path.join(out_dir, "vehicles.jsonl"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"vehicles.jsonl unreadable: {exc}"]
    if veh["id"].size != horizon or not np.array_equal(veh["id"], np.arange(horizon)):
        return [f"vehicles.jsonl: expected ids 0..{horizon - 1}, got {veh['id'].size} records"]
    lane0 = veh["lane"] - 1
    if lane0.min() < 0 or lane0.max() >= n_lanes:
        return [f"vehicles.jsonl: lane outside 1..{n_lanes}"]
    entry, a, c = veh["entry_t"], veh["a"], veh["c"]

    offset = (float(cfg["region_pfa_m"]) + float(cfg["region_spa_m"])) / float(cfg["v_max"])
    if np.any(np.abs(a - entry - offset) > 1e-9 * np.maximum(1.0, np.abs(a))):
        problems.append("a != entry_t + free-flow offset")
    if np.any(np.diff(entry) < 0):
        problems.append("records are not in arrival order")
    span = float(entry[-1])
    for i in range(n_lanes):
        got = int(np.count_nonzero(lane0 == i))
        want = lam[i] * span
        if abs(got - want) > POISSON_SE * math.sqrt(want):
            problems.append(f"lane {i + 1}: {got} arrivals in {span:.1f} s, Poisson rate gives {want:.1f}")
    early = c < a
    if early.any():
        problems.append(f"vehicle {_first(early)} crosses before its earliest time")
    if np.any(np.abs(veh["delay"] - (c - a)) > 1e-9 * np.maximum(1.0, np.abs(c))):
        problems.append("delay != c - a")

    order = np.argsort(c, kind="stable")
    cs, ls = c[order], lane0[order]
    need = np.where(ls[1:] == ls[:-1], B[ls[:-1]], B[ls[:-1]] + S[ls[1:]])
    short = np.diff(cs) < need - HEADWAY_TOL
    if short.any():
        k = _first(short)
        problems.append(f"vehicle {int(order[k + 1])} crosses {cs[k + 1] - cs[k]:.9f} s "
                        f"after vehicle {int(order[k])}, needs {need[k]}")
    for i in range(n_lanes):
        if np.any(np.diff(c[lane0 == i]) <= 0):
            problems.append(f"lane {i + 1}: vehicles do not cross in arrival order")

    delay = c - a
    post, post_lane = delay[warmup:], lane0[warmup:]
    expect = {"all": (_mean(post), batch_means_ci(post), post.size)}
    for i in range(n_lanes):
        sel = post[post_lane == i]
        expect[str(i + 1)] = (_mean(sel), batch_means_ci(sel), sel.size)
    approx = None
    if cfg["pfa"] in APPROX_DISCIPLINES:
        lanes_approx, all_approx = interpolated_delays(lam, B, S, str(cfg["pfa"]))
        approx = {"all": all_approx, **{str(i + 1): v for i, v in enumerate(lanes_approx)}}

    try:
        header, rows = read_csv(os.path.join(out_dir, "results.csv"))
    except OSError as exc:
        return problems + [f"results.csv unreadable: {exc}"]
    if header != RUN_CSV_HEADER:
        return problems + [f"results.csv header {header}"]
    if [r["lane"] for r in rows] != list(expect):
        return problems + [f"results.csv lanes {[r['lane'] for r in rows]}"]
    rho = float((lam * B).sum())
    for row in rows:
        where = f"results.csv lane {row['lane']}"
        mean, ci, count = expect[row["lane"]]
        if not _close(_cell(row["rho"]), rho, 1e-9):
            problems.append(f"{where}: rho {row['rho']} != {rho}")
        if row["discipline"] != cfg["pfa"] or row["seed"] != str(cfg["seed"]):
            problems.append(f"{where}: discipline/seed {row['discipline']}/{row['seed']}")
        if row["n_vehicles"] != str(count):
            problems.append(f"{where}: n_vehicles {row['n_vehicles']} != {count}")
        if not _close(_cell(row["sim_delay_mean"]), mean):
            problems.append(f"{where}: mean {row['sim_delay_mean']} != recomputed {mean:.12g}")
        if not _close(_cell(row["ci95"]), ci):
            problems.append(f"{where}: ci95 {row['ci95']} != recomputed {ci:.12g}")
        if approx is None:
            if row["approx_delay"] != "":
                problems.append(f"{where}: approx_delay should be blank")
        elif not _close(_cell(row["approx_delay"]), approx[row["lane"]]):
            problems.append(f"{where}: approx_delay {row['approx_delay']} != {approx[row['lane']]:.12g}")
        fairness = _cell(row["fairness"])
        if row["lane"] == "all":
            if fairness is None or not 0.0 < fairness <= 1.0:
                problems.append(f"{where}: fairness {row['fairness']} outside (0, 1]")
        elif fairness is not None:
            problems.append(f"{where}: fairness should be blank")
    return problems


# ===================== sweep-grid =====================

def check_sweep(cfg: Dict[str, object], out_dir: str, rhos: Sequence[float],
                disciplines: Sequence[str]) -> List[str]:
    """delay_sweep.csv of one `platoonsim sweep` over rhos x disciplines."""
    problems: List[str] = []
    lam, B, S = lane_params(cfg)
    n_lanes = lam.size
    horizon = int(cfg["horizon_vehicles"])
    post_n = horizon - int(cfg["warmup_vehicles"])
    try:
        header, rows = read_csv(os.path.join(out_dir, "delay_sweep.csv"))
    except OSError as exc:
        return [f"delay_sweep.csv unreadable: {exc}"]
    if header != RUN_CSV_HEADER:
        return [f"delay_sweep.csv header {header}"]
    lanes = ["all"] + [str(i + 1) for i in range(n_lanes)]
    keys = [(rho, d, lane) for rho in rhos for d in sorted(disciplines) for lane in lanes]
    got_keys = [(float(r["rho"]), r["discipline"], r["lane"]) for r in rows]
    if len(got_keys) != len(keys) or any(
        abs(g[0] - k[0]) > 1e-12 or g[1:] != k[1:] for g, k in zip(got_keys, keys)
    ):
        return [f"delay_sweep.csv: expected {len(rhos) * len(disciplines)} groups of "
                f"{lanes} in sorted order, got {len(rows)} rows"]

    base_rho = float((lam * B).sum())
    means: Dict[str, List[float]] = {d: [] for d in disciplines}
    step = len(lanes)
    for g in range(0, len(rows), step):
        group = rows[g:g + step]
        rho, disc = float(group[0]["rho"]), group[0]["discipline"]
        where = f"rho={rho} {disc}"
        point = rhos.index(min(rhos, key=lambda r: abs(r - rho)))
        counts = [int(r["n_vehicles"]) for r in group]
        if counts[0] != post_n or sum(counts[1:]) != counts[0]:
            problems.append(f"{where}: counts {counts}, all should be {post_n} = sum of lanes")
        cell_means = [_cell(r["sim_delay_mean"]) for r in group]
        if any(m is None for m in cell_means):
            problems.append(f"{where}: missing mean")
            continue
        weighted = sum(m * n for m, n in zip(cell_means[1:], counts[1:])) / max(sum(counts[1:]), 1)
        if not _close(cell_means[0], weighted):
            problems.append(f"{where}: all mean {cell_means[0]} != lane-weighted {weighted:.12g}")
        means[disc].append(cell_means[0])
        for r in group:
            if r["seed"] != str(int(cfg["seed"]) + point):
                problems.append(f"{where}: seed {r['seed']} != {int(cfg['seed']) + point}")
            ci = _cell(r["ci95"])
            if ci is None or not ci > 0.0:
                problems.append(f"{where} lane {r['lane']}: ci95 {r['ci95']}")
        fairness = _cell(group[0]["fairness"])
        if fairness is None or not 0.0 < fairness <= 1.0:
            problems.append(f"{where}: fairness {group[0]['fairness']} outside (0, 1]")
        if disc in APPROX_DISCIPLINES:
            lane_v, all_v = interpolated_delays(lam * rho / base_rho, B, S, disc)
            for r, want in zip(group, [all_v] + lane_v):
                if not _close(_cell(r["approx_delay"]), want):
                    problems.append(f"{where} lane {r['lane']}: approx_delay "
                                    f"{r['approx_delay']} != {want:.12g}")
        elif any(r["approx_delay"] != "" for r in group):
            problems.append(f"{where}: approx_delay should be blank")

    for disc, seq in means.items():
        if any(b <= a for a, b in zip(seq, seq[1:])):
            problems.append(f"{disc}: mean delay does not rise strictly with rho: {seq}")
    if "exhaustive" in means and "gated" in means:
        for rho, ex, ga in zip(rhos, means["exhaustive"], means["gated"]):
            if rho >= 0.3 - 1e-9 and not ex < ga:
                problems.append(f"rho={rho}: exhaustive {ex} not below gated {ga}")
    return problems


# ===================== traj-plan =====================

class Segments:
    """traj_segments.csv rebuilt as exact piecewise-constant-acceleration paths."""

    def __init__(self, table: np.ndarray):
        table = table[np.lexsort((table[:, 1], table[:, 0]))]
        self.vid = table[:, 0].astype(np.int64)
        self.index = table[:, 1].astype(np.int64)
        self.t0, self.dur, self.acc, self.x0, self.v0 = (table[:, k] for k in range(2, 7))
        self.t1 = self.t0 + self.dur
        self.x1 = self.x0 + self.v0 * self.dur + 0.5 * self.acc * self.dur ** 2
        self.v1 = self.v0 + self.acc * self.dur
        ids, self.first, self.count = np.unique(self.vid, return_index=True, return_counts=True)
        self.ids = ids
        self.last = self.first + self.count - 1

    def evaluate(self, vehicle_rows: np.ndarray, t: np.ndarray) -> Tuple[np.ndarray, ...]:
        """(x, v, accel) of the vehicles whose first-segment rows are given, at t."""
        seg = self.first[vehicle_rows].copy()
        for k in range(1, int(self.count.max())):
            cand = self.first[vehicle_rows] + k
            ok = k < self.count[vehicle_rows]
            cand = np.where(ok, cand, seg)
            seg = np.where(ok & (self.t0[cand] <= t), cand, seg)
        d = np.clip(t - self.t0[seg], 0.0, self.dur[seg])
        x = self.x0[seg] + self.v0[seg] * d + 0.5 * self.acc[seg] * d * d
        return x, self.v0[seg] + self.acc[seg] * d, self.acc[seg]


def _load_table(path: str, columns: int) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != columns:
        raise ValueError(f"{path}: {table.shape[1]} columns, expected {columns}")
    return table


def check_traj(cfg: Dict[str, object], out_dir: str) -> Tuple[List[str], int]:
    """traj_segments.csv and traj_sampled.csv of one `platoonsim traj`.

    Returns the problems and the number of sampled rows.
    """
    problems: List[str] = []
    lam, B, S = lane_params(cfg)
    v_max, a_max, l_min = float(cfg["v_max"]), float(cfg["a_max"]), float(cfg["l_min"])
    region = float(cfg["region_spa_m"])
    arrivals = cfg["arrivals"]
    n = len(arrivals)
    lane0 = np.array([lane for lane, _ in arrivals], np.int64) - 1
    offset = (float(cfg["region_pfa_m"]) + region) / v_max
    a = np.array([t for _, t in arrivals], float) + offset
    try:
        seg = Segments(_load_table(os.path.join(out_dir, "traj_segments.csv"), 7))
        samples = _load_table(os.path.join(out_dir, "traj_sampled.csv"), 5)
    except (OSError, ValueError) as exc:
        return [f"trajectory files unreadable: {exc}"], 0
    if not np.array_equal(seg.ids, np.arange(n)):
        missing = np.setdiff1d(np.arange(n), seg.ids).size
        return [f"traj_segments.csv: {seg.ids.size} vehicles planned of {n}, {missing} missing"], 0
    if not np.array_equal(seg.index, np.arange(seg.vid.size) - np.repeat(seg.first, seg.count)):
        return ["traj_segments.csv: segment indices are not 0..k-1 per vehicle"], 0

    # Tolerances: the stated one plus the rounding of the 10-digit cells.
    t_scale = float(np.abs(samples[:, 1]).max(initial=0.0) + np.abs(seg.t1).max())
    tol_t = SPACE_TOL + 4 * ROUND * t_scale
    tol_v = SPACE_TOL + a_max * tol_t
    tol_x = SPACE_TOL + v_max * tol_t + 4 * ROUND * region

    if np.any(seg.dur < 0):
        problems.append("negative segment duration")
    bad_acc = np.minimum(np.abs(seg.acc), np.abs(np.abs(seg.acc) - a_max)) > 1e-9
    if bad_acc.any():
        problems.append(f"vehicle {int(seg.vid[_first(bad_acc)])}: acceleration "
                        f"{seg.acc[_first(bad_acc)]} is not 0 or +-{a_max}")
    for v in (seg.v0, seg.v1):
        out = (v < -tol_v) | (v > v_max + tol_v)
        if out.any():
            problems.append(f"vehicle {int(seg.vid[_first(out)])}: speed {v[_first(out)]} "
                            f"outside [0, {v_max}]")
    inner = np.flatnonzero(seg.vid[1:] == seg.vid[:-1])
    for name, end, start, tol in (("time", seg.t1, seg.t0, tol_t), ("position", seg.x1, seg.x0, tol_x),
                                  ("speed", seg.v1, seg.v0, tol_v)):
        jump = np.abs(start[inner + 1] - end[inner]) > tol
        if jump.any():
            problems.append(f"vehicle {int(seg.vid[inner[_first(jump)]])}: {name} jumps between segments")

    f, l = seg.first, seg.last
    entry_t = a - region / v_max
    for what, got, want, tol in (("entry time", seg.t0[f], entry_t, tol_t),
                                 ("entry position", seg.x0[f], np.full(n, -region), tol_x),
                                 ("entry speed", seg.v0[f], np.full(n, v_max), tol_v),
                                 ("final position", seg.x1[l], np.zeros(n), tol_x),
                                 ("final speed", seg.v1[l], np.full(n, v_max), tol_v)):
        off = np.abs(got - want) > tol
        if off.any():
            k = _first(off)
            problems.append(f"vehicle {k}: {what} {got[k]:.9g}, expected {want[k]:.9g}")

    c = seg.t1[l]
    early = c < a - tol_t
    if early.any():
        problems.append(f"vehicle {_first(early)} crosses before its earliest time")
    order = np.argsort(c, kind="stable")
    cs, ls = c[order], lane0[order]
    need = np.where(ls[1:] == ls[:-1], B[ls[:-1]], B[ls[:-1]] + S[ls[1:]])
    short = np.diff(cs) < need - tol_t
    if short.any():
        k = _first(short)
        problems.append(f"vehicle {int(order[k + 1])} crosses {cs[k + 1] - cs[k]:.9f} s "
                        f"after vehicle {int(order[k])}, needs {need[k]}")

    # Sampled rows against the rebuilt paths, grouped by vehicle in file order.
    samples = samples[np.argsort(samples[:, 0], kind="stable")]
    s_vid = samples[:, 0].astype(np.int64)
    s_t = samples[:, 1]
    if not np.array_equal(np.unique(s_vid), np.arange(n)):
        return problems + ["traj_sampled.csv: vehicles are not 0..N-1"], samples.shape[0]
    s_first = np.searchsorted(s_vid, np.arange(n))
    s_last = np.append(s_first[1:], s_vid.size) - 1
    if np.any(np.abs(s_t[s_first] - seg.t0[f]) > tol_t) or np.any(np.abs(s_t[s_last] - c) > tol_t):
        problems.append("traj_sampled.csv: samples do not span [entry, crossing]")
    steps = np.diff(s_t)[s_vid[1:] == s_vid[:-1]]
    if steps.size and (steps.min() < 0 or steps.max() > 0.1 + tol_t):
        problems.append("traj_sampled.csv: sample times not on an ascending 0.1 s grid")
    x, v, acc = seg.evaluate(s_vid, s_t)
    for name, got, want, tol in (("x", samples[:, 2], x, tol_x), ("v", samples[:, 3], v, tol_v)):
        off = np.abs(got - want) > tol
        if off.any():
            k = _first(off)
            problems.append(f"traj_sampled.csv vehicle {s_vid[k]} t={s_t[k]}: {name} {got[k]} "
                            f"!= rebuilt {want[k]:.9g}")
    # Away from a breakpoint the sampled acceleration is the segment's.
    breaks = np.sort(np.concatenate([seg.t0, seg.t1]))
    pos = np.clip(np.searchsorted(breaks, s_t), 1, breaks.size - 1)
    near = np.minimum(np.abs(breaks[pos] - s_t), np.abs(breaks[pos - 1] - s_t)) <= tol_t
    off = ~near & (np.abs(samples[:, 4] - acc) > 1e-9)
    if off.any():
        k = _first(off)
        problems.append(f"traj_sampled.csv vehicle {s_vid[k]} t={s_t[k]}: a {samples[k, 4]} != {acc[k]}")

    problems += _separation(seg, lane0, c, s_t, s_first, s_last, l_min, tol_x)
    return problems, int(samples.shape[0])


def _separation(seg: Segments, lane0: np.ndarray, c: np.ndarray, s_t: np.ndarray,
                s_first: np.ndarray, s_last: np.ndarray, l_min: float,
                tol_x: float) -> List[str]:
    """Same-lane consecutive vehicles stay l_min apart on both sample grids and
    at every breakpoint of either, from the later entry until the leader crosses."""
    leaders, followers, times = [], [], []
    for lane in np.unique(lane0):
        ids = np.flatnonzero(lane0 == lane)
        ids = ids[np.argsort(c[ids], kind="stable")]
        for lead, follow in zip(ids[:-1], ids[1:]):
            lo = max(seg.t0[seg.first[lead]], seg.t0[seg.first[follow]])
            hi = c[lead]
            if hi <= lo:
                continue
            ts = np.concatenate([
                s_t[s_first[lead]:s_last[lead] + 1], s_t[s_first[follow]:s_last[follow] + 1],
                seg.t0[seg.first[lead]:seg.last[lead] + 1], seg.t1[seg.first[lead]:seg.last[lead] + 1],
                seg.t0[seg.first[follow]:seg.last[follow] + 1],
                seg.t1[seg.first[follow]:seg.last[follow] + 1],
            ])
            ts = ts[(ts >= lo) & (ts <= hi)]
            leaders.append(np.full(ts.size, lead))
            followers.append(np.full(ts.size, follow))
            times.append(ts)
    if not times:
        return []
    lead, follow, t = (np.concatenate(v) for v in (leaders, followers, times))
    gap = seg.evaluate(lead, t)[0] - seg.evaluate(follow, t)[0]
    # Each rebuilt position carries up to tol_x - SPACE_TOL of cell rounding.
    close = gap < l_min - SPACE_TOL - 2 * (tol_x - SPACE_TOL)
    if close.any():
        k = _first(close)
        return [f"vehicles {int(lead[k])}->{int(follow[k])}: gap {gap[k]:.9f} m < {l_min} m "
                f"at t={t[k]:.6f}"]
    return []
