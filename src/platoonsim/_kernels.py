"""Scheduling kernel: the simulator's hot loop in plain Python.

The scheduling recurrence is inherently sequential (every insertion
depends on all prior state), so the kernel is a scalar loop over Python
lists of floats and ints. Its disciplines are those of the reference in
pfa, with the same floating-point operations in the same order, so its
schedules are bit-identical to pfa's (tested).

simulate_arrivals runs one of two loops: _exhaustive, which holds each
lane's last crossing time and no platoon book, and _gated, which runs
gated and batch (cap None: uncapped) on the platoon book. A shift adds
in place, walking the short tail of the schedule back to its anchor, and
the new vehicle is inserted with list.insert at the slot where that walk
stopped. Joins walk inline; cut-ins and forced switches walk in
_shift_after.

The state holds the live queue, not the horizon: the arrivals are read
BLOCK at a time, and once more than BLOCK slots have departed their
crossing times go to the result array and the slots are deleted, all but
the last, whose crossing time and lane the next arrival reads.

Scheduling state:
  cs/ln/ai   crossing time, 0-based lane and global arrival index per slot,
             sorted by crossing time; slots [0, head) have departed (at most
             BLOCK of them), slots [head, len) are live
  tl         _exhaustive: per lane, the crossing time of the lane's last
             scheduled vehicle, or -inf; that vehicle is live iff
             tl + B > a, as departures leave in crossing order and c + B
             grows along the schedule
  pf/pt/pn   _gated: per lane, the live platoons' starts, ends and sizes,
             ascending
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import chain

import numpy as np

from .core import TIE_TOL, InconsistentGateBook, PlatoonError

USE_NUMBA = False  # for callers that record the engine; there is no compiled variant
BLOCK = 8192  # arrivals read, and departed slots compacted, at a time


def _shift_after(xs, lo, anchor, delta):
    """Add delta in place to sorted xs[lo:] after the anchor, from the end back to lo
    or an entry <= it; return the slot where the walk stopped, bisect_right(xs, anchor, lo)."""
    j = len(xs) - 1
    while j >= lo and xs[j] > anchor:
        xs[j] += delta
        j -= 1
    return j + 1


def _shift_platoons(pf, pt, anchor, delta):
    """Shift in place each platoon starting after the anchor: every lane walks back
    from its last platoon to the first start not after the anchor, or to its first."""
    for starts, ends in zip(pf, pt):
        j = len(starts) - 1
        while j >= 0 and starts[j] > anchor:
            starts[j] += delta
            ends[j] += delta
            j -= 1


def _lands_on_start(pf, c):
    """True if some live platoon starts exactly (within TIE_TOL) at c."""
    for starts in pf:
        for f in starts:
            if abs(f - c) <= TIE_TOL:
                return True
            if f > c + TIE_TOL:
                break
    return False


def _fallback_c(cs, ln, B, S, d):
    """Continuation behind the last vehicle when no platoon anchor applies."""
    dl = ln[-1]
    if d == dl:
        return cs[-1] + B[d]
    return cs[-1] + B[dl] + S[d]


def _scan_orders(n):
    """Per lane d, the other lanes in reverse cyclic order from d."""
    return [list(range(d - 1, -1, -1)) + list(range(n - 1, d, -1)) for d in range(n)]


def _scan_anchor(cs, head, pt, lanes, B, s_d, a):
    """Cross-lane scan: (platoon end, new crossing time) or None.

    Lanes go in reverse cyclic order; a reachable platoon end is skipped
    when traffic sits strictly inside the occupation-plus-clearance
    window (end, end + B + S).
    """
    for lane in lanes:
        gap = B[lane] + s_d
        for te in pt[lane]:
            if te + gap > a:
                p = bisect_right(cs, te, head)
                if p == len(cs) or cs[p] >= te + gap - TIE_TOL:
                    return te, te + gap
    return None


def _retire(final_c, cs, ln, ai, head):
    """Write the departed slots but the last one, which the free test and
    the fallback read, to final_c and delete them; return how many went."""
    cut = head - 1
    final_c[ai[:cut]] = cs[:cut]
    del cs[:cut], ln[:cut], ai[:cut]
    return cut


def _invariants_hold(cs, ln, ai, head, arr_a, B, S, prev_cs, prev_ai, k, pf, pt, pn, cap):
    """Gap, earliest-time and regularity invariants of the live schedule,
    and the platoon book's order, extents and sizes (cap None: uncapped)."""
    for j in range(head + 1, len(cs)):
        if not cs[j] > cs[j - 1]:
            return False
        if ln[j] == ln[j - 1]:
            need = B[ln[j - 1]]
        else:
            need = B[ln[j - 1]] + S[ln[j]]
        if cs[j] - cs[j - 1] < need - TIE_TOL:
            return False
    pj = 0
    for j in range(head, len(cs)):
        if cs[j] < arr_a[ai[j]]:
            return False
        if ai[j] == k:
            continue
        # Earlier vehicles keep their order and never move earlier.
        if pj >= len(prev_ai) or prev_ai[pj] != ai[j] or cs[j] < prev_cs[pj]:
            return False
        pj += 1
    if pj != len(prev_ai):
        return False
    for starts, ends, counts in zip(pf, pt, pn):
        prev_t = -np.inf
        for f, t, count in zip(starts, ends, counts):
            if f > t or f <= prev_t or count < 1 or (cap is not None and count > cap):
                return False
            prev_t = t
    return True


def simulate_arrivals(arr_a, arr_lane, params, pfa, cap, check):
    """Run one full arrival stream through a scheduling discipline.

    Takes pfa.simulate's arguments and returns what it returns. arr_a:
    ascending earliest crossing times as a float64 numpy array (vertical
    queue: these are also the event times). arr_lane: 0-based lanes as an
    integer numpy array. Both are read BLOCK entries at a time as Python
    floats and ints. params: the SimParams whose n, B and S the loop reads.
    pfa: "exhaustive", "gated" or "batch" (cap applies). check: verify the
    schedule and bookkeeping invariants after every arrival (slow).

    Returns (final_c, fallback_count, max_platoon): final_c a float64
    array, NaN where a vehicle was never written, as in pfa; max_platoon
    the largest platoon the book held (0 for exhaustive), read as each
    platoon leaves the book and from the live ones at the end. The caller
    reads the queue statistics from final_c (sim._queue_counts). Raises
    InconsistentGateBook when the platoon book diverges from the schedule
    and PlatoonError when check finds a violated invariant.
    """
    final_c = np.full(len(arr_a), np.nan)
    arrivals = chain.from_iterable(
        zip(arr_a[lo:lo + BLOCK].tolist(), arr_lane[lo:lo + BLOCK].tolist())
        for lo in range(0, len(arr_a), BLOCK)
    )
    if pfa == "exhaustive":
        fallback_count, max_platoon = _exhaustive(arrivals, arr_a, params, final_c, check)
    else:
        fallback_count, max_platoon = _gated(
            arrivals, arr_a, params, cap if pfa == "batch" else None, final_c, check
        )
    return final_c, fallback_count, max_platoon


def _exhaustive(arrivals, arr_a, params, final_c, check):
    """Exhaustive into final_c: join the own lane's last vehicle while it is
    live, else the first live lane's last vehicle in reverse cyclic order,
    else fall back behind the schedule. Returns (fallback_count, 0)."""
    n, B, S = params.n, params.B, params.S
    block = BLOCK
    cs, ln, ai = [], [], []
    head = 0
    tl = [-np.inf] * n
    scan = _scan_orders(n)
    prev_cs = prev_ai = None
    fallback_count = 0

    for k, (a, d) in enumerate(arrivals):
        tail = len(cs)

        # ----- departures due at or before the arrival instant -----
        while head < tail and cs[head] + B[ln[head]] <= a:
            head += 1
        if head > block:
            tail -= _retire(final_c, cs, ln, ai, head)
            head = 1

        if check:
            prev_cs = cs[head:]
            prev_ai = ai[head:]

        # The last vehicle scheduled (live or, with none live, departed);
        # the first arrival flows freely.
        if k:
            cl = cs[-1]
            dl = ln[-1]
        else:
            cl = -np.inf
            dl = d
        if cl + B[dl] < a:  # free
            if d == dl:
                c0 = a
            else:
                c0 = cl + B[dl] + S[d]
                if a > c0:
                    c0 = a
            cs.append(c0)
            ln.append(d)
            ai.append(k)
        else:
            b_d = B[d]
            anchor = tl[d]
            if anchor + b_d > a:  # the lane's last vehicle is live: join it
                delta = b_d
                c0 = anchor + b_d
            else:
                s_d = S[d]
                delta = b_d + s_d
                for lane in scan[d]:
                    anchor = tl[lane]
                    if anchor + B[lane] > a:
                        c0 = anchor + (B[lane] + s_d)
                        break
                else:
                    fallback_count += 1
                    c0 = _fallback_c(cs, ln, B, S, d)
                    anchor = cs[-1]  # nothing comes after it to shift
            # The anchor is live, so the walk stops at its slot; the lanes
            # whose last vehicle moved take its new time, the last one last.
            pos = tail
            while cs[pos - 1] > anchor:
                pos -= 1
                cs[pos] += delta
            if pos < tail:
                for j in range(pos, tail):
                    tl[ln[j]] = cs[j]
            cs.insert(pos, c0)
            ln.insert(pos, d)
            ai.insert(pos, k)
        tl[d] = c0

        if check and not _invariants_hold(
            cs, ln, ai, head, arr_a, B, S, prev_cs, prev_ai, k, (), (), (), None
        ):
            raise PlatoonError(f"scheduling invariant violated at arrival {k}")

    final_c[ai] = cs
    return fallback_count, 0


def _gated(arrivals, arr_a, params, cap, final_c, check):
    """Gated, or batch with platoons of at most cap, into final_c: join the
    earliest own-lane platoon still ahead (with room), else cut in behind a
    platoon end (a forced switch when every own-lane platoon is full), else
    fall back behind the schedule. Returns (fallback_count, max_platoon)."""
    n, B, S = params.n, params.B, params.S
    block = BLOCK
    cs, ln, ai = [], [], []
    head = 0
    pf = [[] for _ in range(n)]
    pt = [[] for _ in range(n)]
    pn = [[] for _ in range(n)]
    start_bound = -np.inf  # no live platoon starts after it
    scan = _scan_orders(n)
    prev_cs = prev_ai = None
    fallback_count = 0
    max_platoon = 0

    for k, (a, d) in enumerate(arrivals):
        tail = len(cs)

        # ----- departures due at or before the arrival instant -----
        while head < tail:
            c = cs[head]
            d0 = ln[head]
            if c + B[d0] > a:
                break
            ends = pt[d0]
            if not ends or c > ends[0] + TIE_TOL:
                raise InconsistentGateBook(
                    f"platoon bookkeeping diverged from the schedule at arrival {k}"
                )
            if abs(c - ends[0]) <= TIE_TOL:
                if pn[d0][0] > max_platoon:
                    max_platoon = pn[d0][0]
                del pf[d0][0], ends[0], pn[d0][0]
            head += 1
        if head > block:
            tail -= _retire(final_c, cs, ln, ai, head)
            head = 1

        if check:
            prev_cs = cs[head:]
            prev_ai = ai[head:]

        # The last vehicle scheduled (live or, with none live, departed);
        # the first arrival flows freely.
        if k:
            cl = cs[-1]
            dl = ln[-1]
        else:
            cl = -np.inf
            dl = d
        newp = True  # register (c0, c0) as a fresh platoon
        if cl + B[dl] < a:  # free
            if d == dl:
                c0 = a
            else:
                c0 = cl + B[dl] + S[d]
                if a > c0:
                    c0 = a
            pos = tail
        else:
            b_d = B[d]
            starts = pf[d]
            j = bisect_right(starts, a)  # earliest own-lane platoon still ahead
            m = len(starts)
            if cap is not None:
                counts = pn[d]
                while j < m and counts[j] >= cap:
                    j += 1
            if j < m:  # join it
                anchor = pt[d][j]
                pos = tail
                while pos > head and cs[pos - 1] > anchor:
                    pos -= 1
                    cs[pos] += b_d
                if start_bound > anchor:
                    _shift_platoons(pf, pt, anchor, b_d)
                    start_bound += b_d
                c0 = anchor + b_d
                pt[d][j] = c0
                pn[d][j] += 1
                newp = False
            else:
                s_d = S[d]
                if m and starts[-1] > a:
                    # Every joinable platoon is full: open a fresh platoon
                    # behind the lane's last one (forced switch, full
                    # occupation-plus-clearance).
                    anchor = pt[d][-1]
                    found = anchor, anchor + (b_d + s_d)
                else:
                    found = _scan_anchor(cs, head, pt, scan[d], B, s_d, a)
                if found is None:
                    fallback_count += 1
                    c0 = _fallback_c(cs, ln, B, S, d)
                    pos = tail
                else:
                    anchor, c0 = found
                    unit = b_d + s_d
                    delta = 2.0 * unit if _lands_on_start(pf, c0) else unit
                    pos = _shift_after(cs, head, anchor, delta)
                    if start_bound > anchor:
                        _shift_platoons(pf, pt, anchor, delta)
                        start_bound += delta

        if newp:
            if pt[d] and c0 <= pt[d][-1]:
                raise InconsistentGateBook(
                    f"platoon bookkeeping diverged from the schedule at arrival {k}"
                )
            pf[d].append(c0)
            pt[d].append(c0)
            pn[d].append(1)
            if c0 > start_bound:
                start_bound = c0

        # ----- insert the new vehicle -----
        cs.insert(pos, c0)
        ln.insert(pos, d)
        ai.insert(pos, k)

        if check and not _invariants_hold(
            cs, ln, ai, head, arr_a, B, S, prev_cs, prev_ai, k, pf, pt, pn, cap
        ):
            raise PlatoonError(f"scheduling invariant violated at arrival {k}")

    max_platoon = max([max_platoon] + [max(counts) for counts in pn if counts])
    final_c[ai] = cs
    return fallback_count, max_platoon
