"""Flat-state kernel for the simulator's hot loop.

The scheduling recurrence is inherently sequential (every insertion
depends on all prior state), so the fast path is a scalar loop, not
vectorized numpy. One kernel body runs two ways, chosen at import:

- with numba present the kernel is @njit-compiled (nogil, cached) and
  its buffers and inputs are 1-D float64/int64 numpy arrays;
- without numba, or with PLATOONSIM_NO_NUMBA=1, it runs as plain Python
  over Python lists of floats and ints, because indexing a numpy array
  from Python boxes a numpy scalar per element and routes every
  operation through numpy's scalar arithmetic.

_buf allocates every buffer and to_kernel converts the inputs for the
chosen path. IEEE-754 + - *, comparisons and abs give the same bits on
Python floats as on float64, so both paths produce bit-identical
schedules, which the test suite verifies against the object-level
reference in pfa.

Scheduling state is flat:
  cs/ln/ai    crossing time, lane, arrival index per slot; live slots are
              [head, tail), sorted by crossing time
  lastsched   per lane, slot of the lane's last scheduled vehicle or -1
  gf/gt/gcnt  per-lane rings of platoon (start, end, size), ascending;
              one 1-D buffer for all lanes, entry idx of lane at
              lane * pcap + idx, where pcap (a power of two) covers
              the run's arrivals up to _PCAP
Status codes returned instead of exceptions (numba-safe); the wrapper in
sim raises.
"""
from __future__ import annotations

import os

import numpy as np

from .pfa import TIE_TOL

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    numba = None
    HAS_NUMBA = False


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


USE_NUMBA = HAS_NUMBA and not _env_flag("PLATOONSIM_NO_NUMBA")

if USE_NUMBA:
    def _jit(fn):
        return numba.njit(cache=True, nogil=True)(fn)

    @_jit
    def _buf(size, fill):
        """Buffer of size copies of fill (dtype from fill: float64 or int64)."""
        return np.full(size, fill)

    def to_kernel(values, dtype):
        """A kernel input: a contiguous 1-D array of dtype."""
        return np.ascontiguousarray(values, dtype)
else:
    def _jit(fn):
        return fn

    def _buf(size, fill):
        """Buffer of size copies of fill."""
        return [fill] * size

    def to_kernel(values, dtype):
        """A kernel input: a list of Python floats or ints of dtype's kind."""
        return np.asarray(values, dtype).tolist()

# Kernel status codes.
OK = 0
ERR_GATE_OVERFLOW = 1      # per-lane platoon ring exhausted
ERR_INVARIANT = 2          # checked mode found a violated invariant
ERR_GATE_BOOKKEEPING = 3   # platoon bookkeeping inconsistent with the schedule

KIND_EXHAUSTIVE = 0
KIND_GATED = 1
KIND_BATCH = 2

_PCAP = 1 << 14  # largest per-lane platoon ring capacity (power of two)


@_jit
def _bisect_gt(cs, lo, hi, x):
    """First index in [lo, hi) with cs[index] > x."""
    while lo < hi:
        mid = (lo + hi) >> 1
        if cs[mid] > x:
            hi = mid
        else:
            lo = mid + 1
    return lo


@_jit
def _vshift_after(cs, head, tail, anchor, delta):
    """Add delta to every live crossing time strictly after the anchor."""
    j = _bisect_gt(cs, head, tail, anchor)
    while j < tail:
        cs[j] += delta
        j += 1


@_jit
def _gshift_after(gf, gt, gh, glen, n, pcap, anchor, delta):
    """Shift every platoon whose start is strictly after the anchor."""
    mask = pcap - 1
    for lane in range(n):
        k = glen[lane] - 1
        while k >= 0:  # entries ascend by start; walk the suffix only
            idx = lane * pcap + ((gh[lane] + k) & mask)
            if gf[idx] > anchor:
                gf[idx] += delta
                gt[idx] += delta
                k -= 1
            else:
                break


@_jit
def _lands_on_start(gf, gh, glen, n, pcap, c):
    """True if some live platoon starts exactly (within TIE_TOL) at c."""
    mask = pcap - 1
    for lane in range(n):
        for k in range(glen[lane]):
            f = gf[lane * pcap + ((gh[lane] + k) & mask)]
            if abs(f - c) <= TIE_TOL:
                return True
            if f > c + TIE_TOL:
                break
    return False


@_jit
def simulate_arrivals(arr_a, arr_lane, n, B, S, kind, cap, warm_start, check):
    """Run one full arrival stream through a scheduling discipline.

    Inputs come through to_kernel. arr_a: float64[N], ascending earliest
    crossing times (vertical queue: these are also the event times).
    arr_lane: int64[N], 0-based lanes. B, S: float64[n] per-lane headway /
    clearance. kind: 0 exhaustive, 1 gated, 2 batch (cap applies).
    warm_start: first arrival index that counts toward the fairness sums.
    check: verify the schedule and bookkeeping invariants after every
    arrival (slow, for tests).

    Returns (final_c, sum_ahead, sum_total, max_queue, fallback_count,
    departed, status, status_arrival); final_c is a float64 numpy array.
    """
    N = len(arr_a)
    final_c = np.full(N, np.nan)

    cs = _buf(N + 1, 0.0)
    ln = _buf(N + 1, 0)
    ai = _buf(N + 1, 0)
    head = 0
    tail = 0
    lastsched = _buf(n, -1)

    ld_c = 0.0
    ld_lane = -1  # -1: nothing has ever departed

    # A lane never holds more live platoons than the run has arrivals, so
    # each ring needs at most min(N, _PCAP) slots, rounded up to a power
    # of two for the index mask.
    pcap = 1
    while pcap < N and pcap < _PCAP:
        pcap *= 2
    mask = pcap - 1
    if kind == KIND_EXHAUSTIVE:
        ring = 1  # exhaustive keeps no platoons; a placeholder keeps types stable
    else:
        ring = n * pcap
    gf = _buf(ring, 0.0)
    gt = _buf(ring, 0.0)
    gcnt = _buf(ring, 0)
    gh = _buf(n, 0)
    glen = _buf(n, 0)

    order = _buf(n, 0)  # reverse-cyclic lane scan order (n-1 used)

    snap_n = N + 1 if check else 1
    prev_cs = _buf(snap_n, 0.0)
    prev_ai = _buf(snap_n, 0)

    sum_ahead = 0
    sum_total = 0
    max_queue = 0
    fallback_count = 0
    departed = 0

    for k in range(N):
        now = arr_a[k]
        d = arr_lane[k]

        # ----- departures due at or before the arrival instant -----
        while tail > head:
            due = cs[head] + B[ln[head]]
            if due <= now:
                d0 = ln[head]
                final_c[ai[head]] = cs[head]
                ld_c = cs[head]
                ld_lane = d0
                if kind != KIND_EXHAUSTIVE:
                    if glen[d0] == 0:
                        return final_c, sum_ahead, sum_total, max_queue, fallback_count, departed, ERR_GATE_BOOKKEEPING, k
                    idx = d0 * pcap + (gh[d0] & mask)
                    if cs[head] > gt[idx] + TIE_TOL:
                        return final_c, sum_ahead, sum_total, max_queue, fallback_count, departed, ERR_GATE_BOOKKEEPING, k
                    if abs(cs[head] - gt[idx]) <= TIE_TOL:
                        gh[d0] = (gh[d0] + 1) & mask
                        glen[d0] -= 1
                if lastsched[d0] == head:
                    lastsched[d0] = -1
                head += 1
                departed += 1
            else:
                break

        if check:
            prev_len = tail - head
            m = 0
            for j in range(head, tail):
                prev_cs[m] = cs[j]
                prev_ai[m] = ai[j]
                m += 1
        else:
            prev_len = 0

        a = now  # vertical queue: earliest crossing equals the arrival time

        # ----- last-vehicle reference -----
        if tail > head:
            cl = cs[tail - 1]
            dl = ln[tail - 1]
            has_last = True
        elif ld_lane >= 0:
            cl = ld_c
            dl = ld_lane
            has_last = True
        else:
            cl = 0.0
            dl = -1
            has_last = False

        c0 = 0.0
        newp = False   # register (c0, c0) as a fresh platoon (gated/batch)
        done = False

        # ----- free-flow branch -----
        if not has_last:
            c0 = a
            newp = True
            done = True
        elif cl + B[dl] < a:
            if d == dl:
                c0 = a
            else:
                c0 = cl + B[dl] + S[d]
                if a > c0:
                    c0 = a
            newp = True
            done = True

        if not done and kind == KIND_EXHAUSTIVE:
            b_d = B[d]
            tds = lastsched[d]
            if tds >= 0 and cs[tds] + b_d > a:
                anchor = cs[tds]
                _vshift_after(cs, head, tail, anchor, b_d)
                c0 = anchor + b_d
                done = True
            else:
                s_d = S[d]
                m = 0
                for lane in range(d - 1, -1, -1):
                    order[m] = lane
                    m += 1
                for lane in range(n - 1, d, -1):
                    order[m] = lane
                    m += 1
                for oi in range(m):
                    lane = order[oi]
                    tls = lastsched[lane]
                    gap = B[lane] + s_d
                    if tls >= 0 and cs[tls] + gap > a:
                        anchor = cs[tls]
                        _vshift_after(cs, head, tail, anchor, b_d + s_d)
                        c0 = anchor + gap
                        done = True
                        break
                if not done:
                    fallback_count += 1
                    if d == dl:
                        c0 = cl + b_d
                    else:
                        c0 = cl + B[dl] + s_d
                    done = True

        if not done:  # gated / batch
            b_d = B[d]
            s_d = S[d]

            # Join: earliest own-lane platoon whose start is still ahead.
            any_joinable = False
            for k2 in range(glen[d]):
                idx = d * pcap + ((gh[d] + k2) & mask)
                if gf[idx] > a:
                    any_joinable = True
                    if kind == KIND_GATED or gcnt[idx] < cap:
                        anchor = gt[idx]
                        _vshift_after(cs, head, tail, anchor, b_d)
                        _gshift_after(gf, gt, gh, glen, n, pcap, anchor, b_d)
                        c0 = anchor + b_d
                        gt[idx] = c0
                        gcnt[idx] += 1
                        done = True
                        break

            if not done and any_joinable:
                # Every joinable platoon is full: open a fresh platoon
                # behind the lane's last one (forced switch, full
                # occupation-plus-clearance).
                idx = d * pcap + ((gh[d] + glen[d] - 1) & mask)
                anchor = gt[idx]
                unit = b_d + s_d
                gap = B[d] + s_d
                c0 = anchor + gap
                delta = unit
                if _lands_on_start(gf, gh, glen, n, pcap, c0):
                    delta = 2.0 * unit
                _vshift_after(cs, head, tail, anchor, delta)
                _gshift_after(gf, gt, gh, glen, n, pcap, anchor, delta)
                newp = True
                done = True

            if not done:
                # Cross-lane scan in reverse cyclic order; a candidate end
                # is skipped when traffic sits strictly inside the
                # occupation-plus-clearance window (t, t+B+S).
                m = 0
                for lane in range(d - 1, -1, -1):
                    order[m] = lane
                    m += 1
                for lane in range(n - 1, d, -1):
                    order[m] = lane
                    m += 1
                for oi in range(m):
                    lane = order[oi]
                    gap = B[lane] + s_d
                    for k2 in range(glen[lane]):
                        idx = lane * pcap + ((gh[lane] + k2) & mask)
                        te = gt[idx]
                        if te + gap > a:
                            p = _bisect_gt(cs, head, tail, te)
                            if p == tail or cs[p] >= te + gap - TIE_TOL:
                                unit = b_d + s_d
                                c0 = te + gap
                                delta = unit
                                if _lands_on_start(gf, gh, glen, n, pcap, c0):
                                    delta = 2.0 * unit
                                _vshift_after(cs, head, tail, te, delta)
                                _gshift_after(gf, gt, gh, glen, n, pcap, te, delta)
                                newp = True
                                done = True
                                break
                    if done:
                        break

            if not done:
                fallback_count += 1
                if d == dl:
                    c0 = cl + b_d
                else:
                    c0 = cl + B[dl] + s_d
                newp = True
                done = True

        if newp and kind != KIND_EXHAUSTIVE:
            if glen[d] == pcap:
                return final_c, sum_ahead, sum_total, max_queue, fallback_count, departed, ERR_GATE_OVERFLOW, k
            if glen[d] > 0:
                last_idx = d * pcap + ((gh[d] + glen[d] - 1) & mask)
                if c0 <= gt[last_idx]:
                    return final_c, sum_ahead, sum_total, max_queue, fallback_count, departed, ERR_GATE_BOOKKEEPING, k
            idx = d * pcap + ((gh[d] + glen[d]) & mask)
            gf[idx] = c0
            gt[idx] = c0
            gcnt[idx] = 1
            glen[d] += 1

        # ----- insert the new vehicle -----
        n_total = tail - head
        pos = _bisect_gt(cs, head, tail, c0)
        j = tail
        while j > pos:
            cs[j] = cs[j - 1]
            ln[j] = ln[j - 1]
            ai[j] = ai[j - 1]
            j -= 1
        cs[pos] = c0
        ln[pos] = d
        ai[pos] = k
        tail += 1
        for lane in range(n):
            if lastsched[lane] >= pos and lane != d:
                lastsched[lane] += 1
        old = lastsched[d]
        if old >= pos:
            old += 1
        if old < 0 or cs[old] < c0:
            lastsched[d] = pos
        else:
            lastsched[d] = old

        if k >= warm_start:
            sum_ahead += pos - head
            sum_total += n_total
        if tail - head > max_queue:
            max_queue = tail - head

        # ----- optional per-arrival invariant verification -----
        if check:
            ok = True
            for j in range(head + 1, tail):
                if not cs[j] > cs[j - 1]:
                    ok = False
                if ln[j] == ln[j - 1]:
                    need = B[ln[j - 1]]
                else:
                    need = B[ln[j - 1]] + S[ln[j]]
                if cs[j] - cs[j - 1] < need - TIE_TOL:
                    ok = False
            for j in range(head, tail):
                if cs[j] < arr_a[ai[j]]:
                    ok = False
            pj = 0
            mismatch = False
            for j in range(head, tail):
                if ai[j] == k:
                    continue
                if pj >= prev_len or prev_ai[pj] != ai[j]:
                    mismatch = True
                    break
                if cs[j] < prev_cs[pj]:
                    ok = False  # a pre-existing crossing time decreased
                pj += 1
            if mismatch or pj != prev_len:
                ok = False
            if kind != KIND_EXHAUSTIVE:
                for lane in range(n):
                    prev_t = -np.inf
                    for k2 in range(glen[lane]):
                        idx = lane * pcap + ((gh[lane] + k2) & mask)
                        if gf[idx] > gt[idx]:
                            ok = False
                        if gf[idx] <= prev_t:
                            ok = False
                        if gcnt[idx] < 1:
                            ok = False
                        if kind == KIND_BATCH and gcnt[idx] > cap:
                            ok = False
                        prev_t = gt[idx]
            if not ok:
                return final_c, sum_ahead, sum_total, max_queue, fallback_count, departed, ERR_INVARIANT, k

    # ----- drain: remaining crossing times are final -----
    for j in range(head, tail):
        final_c[ai[j]] = cs[j]

    return final_c, sum_ahead, sum_total, max_queue, fallback_count, departed, OK, -1
