"""Trust-constrained device-to-device message passing.

One exchange round runs, for every predicted link j -> i:

 1. the transmitter offers its trusted per-class surplus (availability),
 2. the receiver requests up to its per-class deficit (requirement),
 3. the transmitter fills requests, splitting each class surplus
    proportionally when total demand exceeds it (transmission buffer),
 4. the channel drops points with the link's drop probability (delivery),
 5. every device updates its class-distribution vector.

All stages run on a ledger of the M active links at once: one row per link,
in (transmitter, receiver) ascending order, as (M, L) arrays. Offers and
requests read per-device surplus and deficit tables (class_margins). RL
training scores its expected-value exchanges with these same stage functions
on a ledger of one row per device, in device order, where a device's own
index means no link; their sums (bincounts over (device, class) cells) are
exact in any link order. RL scores several episodes in one call: the ledger
then carries a leading episode axis, (E, M, L) arrays over one device table,
with episode e's cells numbered after those of episodes 0..e-1.

Counts are integers up to step 3; the proportional split can produce
fractional buffers, which are kept as reals during reward computation and
rounded to integers only when data points are actually moved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Fractional transmission buffers are floored onto this binary grid so that
# every addition/subtraction of counts below ~2^30 stays exact in float64;
# lossless exchanges then conserve totals to integer equality.
_GRID = 2.0**20

EXPECTED = "expected"
STOCHASTIC = "stochastic"


@dataclass
class LinkPlan:
    """Per-link ledger of the four message-passing stages."""

    receiver: int
    transmitter: int
    available: np.ndarray  # offered per class, after trust gating
    requested: np.ndarray  # receiver demand per class
    buffered: np.ndarray  # actually placed on the wire per class
    delivered: np.ndarray  # survived the channel per class


@dataclass
class ExchangeResult:
    """Post-exchange distributions and the per-link ledger, one row per
    active link in (transmitter, receiver) ascending order."""

    updated: np.ndarray  # (N, L) post-exchange class distributions
    receivers: np.ndarray  # (M,)
    transmitters: np.ndarray  # (M,)
    available: np.ndarray  # (M, L)
    requested: np.ndarray  # (M, L)
    buffered: np.ndarray  # (M, L)
    delivered: np.ndarray  # (M, L)

    @property
    def plans(self) -> list[LinkPlan]:
        """The ledger as one LinkPlan per link, built on each read."""
        return [
            LinkPlan(int(rx), int(tx), *rows)
            for rx, tx, *rows in zip(
                self.receivers,
                self.transmitters,
                self.available,
                self.requested,
                self.buffered,
                self.delivered,
            )
        ]

    def delivered_total(self) -> float:
        """Points that survived the channel, summed link by link."""
        return float(sum(self.delivered.sum(axis=1)))


def class_margins(counts: np.ndarray, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-device, per-class (surplus, deficit) as floats: how far counts lie
    above, and below, their thresholds, each clamped at zero. A class has at
    most one of the two."""
    counts = np.asarray(counts, dtype=float)
    return np.maximum(counts - thresholds, 0.0), np.maximum(thresholds - counts, 0.0)


def _cells(rows: np.ndarray, n_classes: int) -> np.ndarray:
    """Flat (row, class) cell index of an (M, L) ledger whose entries belong
    to the given rows, raveled: entry m*L + l is rows[m]*L + l. One exchange
    builds it once for its transmitters and hands it to every stage that
    sums by transmitter."""
    return ((rows * n_classes)[:, None] + np.arange(n_classes)).ravel()


def _row_sums(cells: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, L) table of the (M, L) values summed by their _cells index:
    one bincount, an (E, n_rows, L) table for (E, M, L) values. It adds each
    cell's values in ledger order, so the sums are exact whenever the values
    are integers or lie on the _GRID lattice."""
    shape = (*values.shape[:-2], n_rows, values.shape[-1])
    sums = np.bincount(cells, weights=values.ravel(), minlength=math.prod(shape))
    return sums.reshape(shape)


def available_vector(surplus_tx: np.ndarray, trusted: np.ndarray) -> np.ndarray:
    """Per-class count each transmitter offers over its link: its surplus,
    zeroed for classes the receiver is not trusted with (trusted == 0).
    Rows are links; a single link may be passed as 1-D vectors.
    """
    return np.where(trusted, surplus_tx, 0)  # a nonzero condition is True


def requirement_vector(available: np.ndarray, deficit_rx: np.ndarray) -> np.ndarray:
    """Per-class count the receiver requests from one offer.

    The full offer when the deficit covers it, the deficit when positive but
    smaller than the offer, zero otherwise.
    """
    return np.minimum(deficit_rx, available)


def transmission_buffers(
    requested: np.ndarray,
    transmitters: np.ndarray,
    surplus: np.ndarray,
    cells: np.ndarray | None = None,
) -> np.ndarray:
    """Fill each link's request from its transmitter's surplus.

    requested holds one (L,) row per link and transmitters its sender;
    surplus is the (N, L) device table of class_margins. When a transmitter's
    total demand for a class fits in its surplus every request is served in
    full; otherwise the surplus is split proportionally to demand.
    Fractional shares are floored onto a fine binary grid (error < 1e-6 per
    entry) so downstream count arithmetic stays exact. Demands are integers,
    so their sum is the same in any link order. cells is the transmitters'
    _cells index, built here for a single exchange when not given; a
    leading episode axis needs it given, each episode's cells after the
    last one's.
    """
    requested = np.asarray(requested, dtype=float)
    transmitters = np.asarray(transmitters, dtype=np.int64)
    if cells is None:
        cells = _cells(transmitters, requested.shape[1])
    total = _row_sums(cells, requested, len(surplus)).take(cells).reshape(requested.shape)
    have = surplus.take(transmitters, axis=0)
    split = total > have
    share = np.divide(requested, total, out=np.zeros(requested.shape), where=split)
    share = np.floor(share * have * _GRID) / _GRID
    return np.where(split, share, requested)


def deliver(
    buffered: np.ndarray,
    p_drop: float | np.ndarray,
    mode: str = EXPECTED,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Push transmission buffers through the lossy channel.

    p_drop is one probability in [0, 1], or one per (L,) row of buffered;
    run_exchange checks a caller's drop matrix. Expected mode scales by the
    success probability; stochastic mode drops each point independently
    (binomial on the rounded buffer, clamped so a fractional buffer is never
    exceeded), drawing row by row.
    """
    p_drop = np.asarray(p_drop, dtype=float)
    buffered = np.asarray(buffered, dtype=float)
    keep = (1.0 - p_drop)[..., None] if p_drop.ndim else 1.0 - p_drop
    if mode == EXPECTED:
        return keep * buffered
    if mode == STOCHASTIC:
        if rng is None:
            raise ValueError("stochastic delivery requires an rng")
        n = np.round(buffered).astype(np.int64)
        got = rng.binomial(n, keep).astype(float)
        return np.minimum(got, buffered)
    raise ValueError(f"unknown delivery mode {mode!r}")


def integerize_buffers(buffers: np.ndarray) -> np.ndarray:
    """Round one transmitter's fractional buffers (one row per receiver) to
    integer point counts.

    Per class: floor every receiver's share, then hand out the leftover
    (total share minus the floors) one point at a time by largest fractional
    remainder, lowest row first on ties. Never exceeds the total fractional
    share, hence never the surplus.
    """
    u = np.asarray(buffers, dtype=float)
    floors = np.floor(u + 1e-9).astype(np.int64)
    frac = u - floors
    target = np.round(u.sum(axis=0)).astype(np.int64)
    leftover = target - floors.sum(axis=0)
    for cls in np.flatnonzero(leftover > 0):
        order = np.argsort(-frac[:, cls], kind="stable")
        floors[order[: leftover[cls]], cls] += 1
    return floors


def apply_transfers(
    counts: np.ndarray,
    receivers: np.ndarray,
    transmitters: np.ndarray,
    buffered: np.ndarray,
    delivered: np.ndarray,
    cells: np.ndarray | None = None,
) -> np.ndarray:
    """Post-exchange distributions: every transmitter loses what it put on
    the wire, every receiver (at most one link each) gains what arrived.
    receivers may be slice(None) for a ledger of one row per device, in
    device order. cells is the transmitters' _cells index, built here for a
    single exchange when not given; (E, N, L) results for a leading episode
    axis, as in transmission_buffers.

    In any class a device either gives (it has a surplus) or gains (it has a
    deficit), never both, and buffers lie on the _GRID lattice, so this
    closed form equals applying the links one by one, in any order.
    """
    if cells is None:
        cells = _cells(np.asarray(transmitters), buffered.shape[1])
    updated = counts - _row_sums(cells, buffered, len(counts))
    updated[receivers] += delivered
    return updated


def check_links(links: np.ndarray, n: int) -> np.ndarray:
    """The link array as int64, after checking that it is one entry per
    receiver, each -1 or another device's index."""
    tx = np.asarray(links, dtype=np.int64)
    if tx.shape != (n,):
        raise ValueError(f"link array must have shape ({n},)")
    if tx.min() < -1 or tx.max() >= n:
        raise IndexError(f"link index out of range for {n} devices")
    if np.any(tx == np.arange(n)):
        raise ValueError("a receiver cannot be its own transmitter; -1 means no link")
    return tx


def _active_links(links: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(receivers, transmitters) of the real links, sorted by transmitter
    then receiver."""
    tx = check_links(links, n)
    rx = np.flatnonzero(tx >= 0)
    tx = tx[rx]
    order = np.lexsort((rx, tx))
    return rx[order], tx[order]


def run_exchange(
    links: np.ndarray,
    counts: np.ndarray,
    thresholds: np.ndarray,
    trust: np.ndarray,
    drop: np.ndarray,
    mode: str = EXPECTED,
    rng: np.random.Generator | None = None,
    integer_payloads: bool = False,
) -> ExchangeResult:
    """Execute one full message-passing round over the predicted links.

    Args:
        links: (N,) int array, entry i the transmitter of receiver i; -1
            means no incoming link. Any other entry outside [0, N) raises
            IndexError, and entry i equal to i raises ValueError. At most one
            incoming link per receiver by construction.
        counts: (N, L) per-device class-distribution vectors.
        thresholds: (N, L) per-device, per-class thresholds.
        trust: (N, N, L) trust[j, i, l] = 1 iff device j may send class l
            to device i.
        drop: (N, N) drop[i, j] = drop probability of link j -> i, each
            in [0, 1].
        mode: expected-value or stochastic delivery. Stochastic draws are
            taken link by link in the ledger's (transmitter, receiver) order.
        integer_payloads: round buffers to whole points before delivery,
            as when real data points are moved.

    A transmitter's distribution loses what it put on the wire; a receiver
    gains what survived the channel. Dropped points are lost (there are no
    acknowledgements or retransmissions).
    """
    counts = np.asarray(counts, dtype=float)
    n, n_classes = counts.shape
    if thresholds.shape != counts.shape:
        raise ValueError("thresholds shape must match counts")
    if trust.shape != (n, n, n_classes):
        raise ValueError("trust tensor must be (N, N, L)")
    if not ((drop >= 0) & (drop <= 1)).all():
        raise ValueError("drop probabilities must lie in [0, 1]")

    surplus, deficit = class_margins(counts, thresholds)
    rx, tx = _active_links(links, n)
    available = available_vector(surplus[tx], trust[tx, rx])
    requested = requirement_vector(available, deficit[rx])
    cells = _cells(tx, n_classes)
    buffered = transmission_buffers(requested, tx, surplus, cells)
    if integer_payloads:
        # Rows are grouped by transmitter; each group splits one surplus.
        groups = np.split(buffered, np.flatnonzero(np.diff(tx)) + 1)
        buffered = np.concatenate([integerize_buffers(g) for g in groups]).astype(float)
    delivered = deliver(buffered, drop[rx, tx], mode=mode, rng=rng)
    if integer_payloads:
        if mode == EXPECTED:
            delivered = np.round(delivered)
        delivered = np.minimum(delivered, buffered)
    updated = apply_transfers(counts, rx, tx, buffered, delivered, cells)
    if integer_payloads:
        updated = np.round(updated)
    return ExchangeResult(
        updated=updated,
        receivers=rx,
        transmitters=tx,
        available=available,
        requested=requested,
        buffered=buffered,
        delivered=delivered,
    )
