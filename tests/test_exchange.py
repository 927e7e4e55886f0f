import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dfl.exchange import (
    EXPECTED,
    STOCHASTIC,
    _cells,
    apply_transfers,
    available_vector,
    class_margins,
    deliver,
    integerize_buffers,
    requirement_vector,
    run_exchange,
    transmission_buffers,
)


def full_trust(n, n_classes):
    return np.ones((n, n, n_classes), dtype=np.int8)


def no_drop(n):
    return np.zeros((n, n))


def buffers_for(requests, counts_tx, thresholds_tx):
    """Split one transmitter's surplus over {receiver: request} demands."""
    receivers = list(requests)
    surplus, _ = class_margins(np.asarray(counts_tx)[None], np.asarray(thresholds_tx)[None])
    out = transmission_buffers(
        np.stack([requests[r] for r in receivers]),
        np.zeros(len(receivers), dtype=np.int64),
        surplus,
    )
    return dict(zip(receivers, out))


def offer(counts_tx, thresholds_tx, trusted):
    """The transmitter's offer over one link, from its counts."""
    return available_vector(class_margins(counts_tx, thresholds_tx)[0], trusted)


def request(available, counts_rx, thresholds_rx):
    """The receiver's request from one offer, from its counts."""
    return requirement_vector(available, class_margins(counts_rx, thresholds_rx)[1])


def integerize(buffers):
    """integerize_buffers over {receiver: buffer} rows of one transmitter."""
    return dict(zip(buffers, integerize_buffers(np.stack(list(buffers.values())))))


class TestAvailableVector:
    def test_untrusted_class_is_zeroed(self):
        counts = np.array([20, 20])
        thresholds = np.array([10, 10])
        trust = np.array([[1, 0], [1, 1]])
        got = offer(counts, thresholds, trust[0])
        assert got.tolist() == [10, 0]

    def test_surplus_over_threshold(self):
        got = offer(np.array([20]), np.array([10]), np.array([1]))
        assert got.tolist() == [10]

    def test_deficit_clamps_to_zero(self):
        got = offer(np.array([5]), np.array([10]), np.array([1]))
        assert got.tolist() == [0]

    def test_receiver_out_of_range(self):
        # A link for receiver 7 of 2 devices needs an entry past the last row.
        counts = np.array([[5], [9]])
        links = np.array([-1, -1, -1, -1, -1, -1, -1, 0])
        with pytest.raises(ValueError):
            run_exchange(links, counts, np.ones_like(counts), full_trust(2, 1), no_drop(2))


class TestRequirementVector:
    def test_deficit_at_least_offer_takes_offer(self):
        q = request(np.array([10]), np.array([0]), np.array([15]))
        assert q.tolist() == [10]

    def test_no_deficit_requests_nothing(self):
        q = request(np.array([10]), np.array([30]), np.array([10]))
        assert q.tolist() == [0]

    def test_partial_deficit_takes_deficit(self):
        q = request(np.array([10]), np.array([6]), np.array([10]))
        assert q.tolist() == [4]


class TestTransmissionBuffers:
    def test_even_split_when_demand_doubles_surplus(self):
        requests = {1: np.array([10]), 2: np.array([10])}
        out = buffers_for(requests, np.array([20]), np.array([10]))
        assert out[1].tolist() == [5.0]
        assert out[2].tolist() == [5.0]

    def test_full_service_when_surplus_covers(self):
        requests = {1: np.array([7])}
        out = buffers_for(requests, np.array([20]), np.array([10]))
        assert out[1].tolist() == [7.0]

    def test_single_receiver_capped_at_surplus(self):
        requests = {1: np.array([20])}
        out = buffers_for(requests, np.array([20]), np.array([10]))
        assert out[1].tolist() == [10.0]

    def test_proportional_split(self):
        requests = {1: np.array([6]), 2: np.array([9])}
        out = buffers_for(requests, np.array([20]), np.array([10]))
        assert out[1][0] == pytest.approx(4.0, abs=2e-6)
        assert out[2][0] == pytest.approx(6.0, abs=2e-6)
        assert out[1][0] + out[2][0] <= 10.0

    def test_never_exceeds_request(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_classes = int(rng.integers(1, 5))
            counts = rng.integers(0, 40, size=n_classes)
            thresholds = rng.integers(0, 30, size=n_classes)
            surplus = np.maximum(counts - thresholds, 0)
            requests = {
                r: rng.integers(0, 20, size=n_classes).astype(np.int64)
                for r in range(int(rng.integers(1, 4)))
            }
            for r in requests:
                requests[r] = np.minimum(requests[r], surplus)
            out = buffers_for(requests, counts, thresholds)
            total = np.zeros(n_classes)
            for r, buf in out.items():
                assert np.all(buf <= requests[r] + 1e-12)
                assert np.all(buf >= 0)
                total += buf
            assert np.all(total <= surplus + 1e-9)


class TestDeliver:
    def test_expected_value(self):
        got = deliver(np.array([10.0]), p_drop=0.2, mode=EXPECTED)
        assert got[0] == 8.0

    def test_lossless(self):
        buf = np.array([3.0, 7.0])
        assert np.array_equal(deliver(buf, 0.0, EXPECTED), buf)

    def test_stochastic_matches_seeded_binomial(self):
        buf = np.array([10.0])
        got = deliver(buf, 0.2, STOCHASTIC, rng=np.random.default_rng(99))
        oracle = np.random.default_rng(99).binomial(10, 0.8)
        assert got[0] == oracle

    def test_stochastic_mean(self):
        rng = np.random.default_rng(5)
        draws = rng.binomial(10, 0.8, size=100_000)
        ours = deliver(np.full(100_000, 10.0), 0.2, STOCHASTIC, rng=np.random.default_rng(5))
        assert ours.mean() == pytest.approx(draws.mean())
        assert ours.mean() == pytest.approx(8.0, abs=0.05)

    def test_never_exceeds_buffer(self):
        rng = np.random.default_rng(6)
        buf = rng.uniform(0, 20, size=1000)
        got = deliver(buf, 0.1, STOCHASTIC, rng=rng)
        assert np.all(got <= buf)

    def test_bad_probability_rejected(self):
        # run_exchange checks the drop matrix once; deliver trusts its input.
        counts = np.array([[20.0], [0.0]])
        for bad in (1.5, -0.1, math.nan):
            drop = no_drop(2)
            drop[1, 0] = bad
            with pytest.raises(ValueError, match=r"drop probabilities must lie in \[0, 1\]"):
                run_exchange(
                    np.array([-1, 0]), counts, np.full_like(counts, 10), full_trust(2, 1), drop
                )


class TestIntegerize:
    def test_largest_remainder(self):
        buffers = {1: np.array([4.0]), 2: np.array([6.0])}
        out = integerize(buffers)
        assert out[1].tolist() == [4]
        assert out[2].tolist() == [6]

    def test_fractional_split_preserves_total(self):
        # Surplus 10 over demands 7 and 6: shares 70/13 = 5.385 and
        # 60/13 = 4.615; floors 5 + 4, the leftover point goes to the
        # larger remainder (receiver 2).
        buffers = buffers_for(
            {1: np.array([7]), 2: np.array([6])}, np.array([20]), np.array([10])
        )
        out = integerize(buffers)
        assert out[1][0] + out[2][0] == 10
        assert out[1][0] == 5
        assert out[2][0] == 5

    def test_never_exceeds_fractional_total(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n_classes = int(rng.integers(1, 4))
            n_rx = int(rng.integers(1, 5))
            counts = rng.integers(0, 50, size=n_classes)
            thresholds = rng.integers(0, 40, size=n_classes)
            surplus = np.maximum(counts - thresholds, 0)
            requests = {
                r: np.minimum(rng.integers(0, 25, size=n_classes), surplus)
                for r in range(n_rx)
            }
            real = buffers_for(requests, counts, thresholds)
            ints = integerize(real)
            total = sum(ints.values())
            assert np.all(total <= surplus)
            for r in requests:
                assert np.all(ints[r] <= requests[r])
                assert np.all(ints[r] >= 0)


class TestRunExchange:
    def test_empty_links_change_nothing(self):
        counts = np.array([[5, 5], [1, 9]])
        res = run_exchange(
            np.full(2, -1),
            counts,
            np.zeros((2, 2), dtype=int),
            full_trust(2, 2),
            no_drop(2),
        )
        assert np.array_equal(res.updated, counts)
        assert res.plans == []

    def test_golden_two_receiver_split(self):
        # Transmitter (device 0) holds 20 points of the last class against a
        # threshold of 10 everywhere; receivers 1 and 2 each need 10+.
        n, n_classes = 3, 4
        counts = np.zeros((n, n_classes), dtype=np.int64)
        counts[0, 3] = 20
        thresholds = np.full((n, n_classes), 10, dtype=np.int64)
        res = run_exchange(
            np.array([-1, 0, 0]),
            counts,
            thresholds,
            full_trust(n, n_classes),
            no_drop(n),
        )
        for plan in res.plans:
            assert plan.available[3] == 10
            assert plan.requested[3] == 10
            assert plan.buffered[3] == 5.0
            assert plan.delivered[3] == 5.0
        assert res.updated[0, 3] == 10.0
        assert res.updated[1, 3] == 5.0
        assert res.updated[2, 3] == 5.0

    def test_chain_conserves_totals(self):
        # 0 -> 1 -> 2 chain, lossless, full trust: independent accounting of
        # the per-class totals before and after.
        rng = np.random.default_rng(21)
        counts = rng.integers(0, 30, size=(3, 3)).astype(np.int64)
        thresholds = rng.integers(0, 20, size=(3, 3)).astype(np.int64)
        res = run_exchange(
            np.array([-1, 0, 1]),
            counts,
            thresholds,
            full_trust(3, 3),
            no_drop(3),
        )
        before = counts.sum(axis=0)
        after = res.updated.sum(axis=0)
        assert np.array_equal(after, before.astype(float))

    def test_lossy_expected_mass_balance(self):
        rng = np.random.default_rng(22)
        counts = rng.integers(0, 40, size=(4, 3)).astype(np.int64)
        thresholds = rng.integers(0, 25, size=(4, 3)).astype(np.int64)
        drop = rng.uniform(0, 0.9, size=(4, 4))
        np.fill_diagonal(drop, 0.0)
        res = run_exchange(
            np.array([3, 0, 0, -1]),
            counts,
            thresholds,
            full_trust(4, 3),
            drop,
        )
        dropped = sum((p.buffered - p.delivered).sum() for p in res.plans)
        assert res.updated.sum() == pytest.approx(counts.sum() - dropped, rel=1e-12)

    def test_transmitter_floor(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n, n_classes = 5, 4
            counts = rng.integers(0, 50, size=(n, n_classes)).astype(np.int64)
            thresholds = rng.integers(0, 40, size=(n, n_classes)).astype(np.int64)
            trust = (rng.random((n, n, n_classes)) < 0.6).astype(np.int8)
            drop = rng.uniform(0, 1, size=(n, n))
            links = np.array([int(rng.integers(0, n)) for _ in range(n)])
            links[links == np.arange(n)] = -1
            res = run_exchange(links, counts, thresholds, trust, drop)
            floor = np.minimum(counts, thresholds)
            assert np.all(res.updated >= floor - 1e-9)

    def test_trust_gates_every_delivery(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n, n_classes = 4, 3
            counts = rng.integers(0, 40, size=(n, n_classes)).astype(np.int64)
            thresholds = rng.integers(0, 25, size=(n, n_classes)).astype(np.int64)
            trust = (rng.random((n, n, n_classes)) < 0.5).astype(np.int8)
            drop = rng.uniform(0, 0.5, size=(n, n))
            links = (np.arange(n) + 1) % n
            res = run_exchange(links, counts, thresholds, trust, drop)
            for plan in res.plans:
                for cls in range(n_classes):
                    if plan.delivered[cls] > 0:
                        assert trust[plan.transmitter, plan.receiver, cls] == 1

    def test_elementwise_chain_invariant(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n, n_classes = 5, 4
            counts = rng.integers(0, 60, size=(n, n_classes)).astype(np.int64)
            thresholds = rng.integers(0, 30, size=(n, n_classes)).astype(np.int64)
            trust = (rng.random((n, n, n_classes)) < 0.7).astype(np.int8)
            drop = rng.uniform(0, 1, size=(n, n))
            links = np.array([int((rx + rng.integers(1, n)) % n) for rx in range(n)])
            res = run_exchange(links, counts, thresholds, trust, drop, mode=EXPECTED)
            for p in res.plans:
                assert np.all(p.delivered >= 0)
                assert np.all(p.delivered <= p.buffered + 1e-12)
                assert np.all(p.buffered <= p.requested + 1e-12)
                assert np.all(p.requested <= p.available)

    def test_pure_receiver_never_loses(self):
        rng = np.random.default_rng(26)
        counts = rng.integers(0, 30, size=(3, 3)).astype(np.int64)
        thresholds = rng.integers(0, 25, size=(3, 3)).astype(np.int64)
        res = run_exchange(
            np.array([1, -1, -1]), counts, thresholds, full_trust(3, 3), no_drop(3)
        )
        assert np.all(res.updated[0] >= counts[0])

    def test_integer_payload_stochastic(self):
        rng = np.random.default_rng(27)
        counts = np.array([[40, 0], [0, 40], [0, 0]], dtype=np.int64)
        thresholds = np.full((3, 2), 10, dtype=np.int64)
        drop = np.full((3, 3), 0.3)
        np.fill_diagonal(drop, 0.0)
        res = run_exchange(
            np.array([1, -1, 0]),
            counts,
            thresholds,
            full_trust(3, 2),
            drop,
            mode=STOCHASTIC,
            rng=rng,
            integer_payloads=True,
        )
        assert res.updated.dtype.kind == "f"
        assert np.all(res.updated == np.round(res.updated))
        for p in res.plans:
            assert np.all(p.buffered == np.round(p.buffered))
            assert np.all(p.delivered <= p.buffered)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_exchange(
                np.full(2, -1),
                np.zeros((2, 2)),
                np.zeros((2, 3)),
                full_trust(2, 2),
                no_drop(2),
            )

    @pytest.mark.parametrize("bad", [-2, 3])
    def test_transmitter_out_of_range(self, bad):
        # -1 is the only negative entry; N names no device.
        counts = np.array([[5], [9], [1]])
        links = np.array([-1, bad, 0])
        with pytest.raises(IndexError, match="out of range for 3 devices"):
            run_exchange(links, counts, np.ones_like(counts), full_trust(3, 1), no_drop(3))

    def test_self_link_rejected(self):
        # -1 is the only "no link": a receiver naming itself is an error,
        # not a silent no-op that rl.link_success would score as a link.
        counts = np.array([[5], [9], [1]])
        links = np.array([-1, 1, 0])
        with pytest.raises(ValueError, match="own transmitter"):
            run_exchange(links, counts, np.ones_like(counts), full_trust(3, 1), no_drop(3))


def loop_exchange(links, counts, thresholds, trust, drop, mode, rng, integer_payloads):
    """Reference exchange, one link at a time: transmitters ascending, each
    one's receivers ascending; subtract the buffer, add the delivery.
    Returns the updated counts and the (receiver, transmitter, buffered,
    delivered) ledger in that order."""
    counts = np.asarray(counts, dtype=float)
    by_tx = {}
    for rx, tx in enumerate(links.tolist()):
        if tx >= 0 and tx != rx:
            by_tx.setdefault(tx, []).append(rx)
    updated = counts.copy()
    ledger = []
    for tx in sorted(by_tx):
        receivers = sorted(by_tx[tx])
        surplus = np.maximum(counts[tx] - thresholds[tx], 0.0)
        requests = []
        for rx in receivers:
            offer = np.where(trust[tx, rx] != 0, surplus, 0.0)
            requests.append(np.clip(thresholds[rx] - counts[rx], 0, offer))
        total = sum(requests)
        buffers = []
        for q in requests:
            buf = q.copy()
            for cls in range(len(buf)):
                if total[cls] > surplus[cls]:
                    share = q[cls] / total[cls] * surplus[cls]
                    buf[cls] = np.floor(share * 2.0**20) / 2.0**20
            buffers.append(buf)
        if integer_payloads:
            for cls in range(counts.shape[1]):
                shares = [b[cls] for b in buffers]
                floors = [float(np.floor(v + 1e-9)) for v in shares]
                leftover = int(np.round(sum(shares))) - int(sum(floors))
                ranked = sorted(range(len(shares)), key=lambda k: (-(shares[k] - floors[k]), k))
                for k in ranked[: max(leftover, 0)]:
                    floors[k] += 1.0
                for b, v in zip(buffers, floors):
                    b[cls] = v
        for rx, buf in zip(receivers, buffers):
            keep = 1.0 - drop[rx, tx]
            if mode == EXPECTED:
                got = keep * buf
                if integer_payloads:
                    got = np.round(got)
            else:
                got = np.minimum(rng.binomial(np.round(buf).astype(np.int64), keep), buf)
            got = np.minimum(got, buf) if integer_payloads else got
            updated[tx] -= buf
            updated[rx] += got
            ledger.append((rx, tx, buf, got))
    if integer_payloads:
        updated = np.round(updated)
    return updated, ledger


@st.composite
def exchange_inputs(draw):
    n = draw(st.integers(2, 6))
    n_classes = draw(st.integers(1, 4))
    ints = lambda hi: st.lists(st.integers(0, hi), min_size=n * n_classes, max_size=n * n_classes)
    counts = np.array(draw(ints(60)), dtype=np.int64).reshape(n, n_classes)
    thresholds = np.array(draw(ints(40)), dtype=np.int64).reshape(n, n_classes)
    trust = np.array(
        draw(st.lists(st.booleans(), min_size=n * n * n_classes, max_size=n * n * n_classes)),
        dtype=np.int8,
    ).reshape(n, n, n_classes)
    drop = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    ).reshape(n, n)
    # -1 means "no link" (a self draw becomes one); several receivers may
    # share a transmitter, and a device may both send and receive.
    links = np.array(draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)))
    links[links == np.arange(n)] = -1
    return links, counts, thresholds, trust, drop


class TestLoopOracle:
    """run_exchange equals the one-link-at-a-time reference bit for bit."""

    def check(self, inputs, mode, integer_payloads, seed=0):
        links, counts, thresholds, trust, drop = inputs
        expect, ledger = loop_exchange(
            links, counts, thresholds, trust, drop, mode,
            np.random.default_rng(seed), integer_payloads,
        )
        res = run_exchange(
            links, counts, thresholds, trust, drop, mode=mode,
            rng=np.random.default_rng(seed), integer_payloads=integer_payloads,
        )
        assert np.array_equal(res.updated, expect)
        assert [(p.receiver, p.transmitter) for p in res.plans] == [e[:2] for e in ledger]
        for plan, (_, _, buf, got) in zip(res.plans, ledger):
            assert np.array_equal(plan.buffered, buf)
            assert np.array_equal(plan.delivered, got)

    @settings(max_examples=200, deadline=None)
    @given(exchange_inputs(), st.booleans())
    def test_expected_mode(self, inputs, integer_payloads):
        self.check(inputs, EXPECTED, integer_payloads)

    @settings(max_examples=200, deadline=None)
    @given(exchange_inputs(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_stochastic_mode_equal_seeds(self, inputs, integer_payloads, seed):
        self.check(inputs, STOCHASTIC, integer_payloads, seed)


def loop_buffers(requested, transmitters, surplus):
    """transmission_buffers one link and class at a time in Python floats."""
    buffered = np.zeros(requested.shape)
    for m, tx in enumerate(transmitters):
        for cls in range(requested.shape[1]):
            total = 0.0
            for q, t in zip(requested[:, cls], transmitters):
                if t == tx:
                    total += q
            q, have = requested[m, cls], surplus[tx, cls]
            if total > have:
                buffered[m, cls] = math.floor(q / total * have * 2.0**20) / 2.0**20
            else:
                buffered[m, cls] = q
    return buffered


@st.composite
def stage_ledgers(draw):
    """An exchange ledger as the stages see it: transmitters unsorted and
    repeated, self rows, some all-zero request rows, distinct receivers
    (every device in order when every_row), requests from class margins."""
    n = draw(st.integers(1, 7))
    n_classes = draw(st.integers(1, 4))
    every_row = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 60, (n, n_classes)).astype(float)
    surplus, deficit = class_margins(counts, rng.integers(0, 40, (n, n_classes)))
    m = n if every_row else draw(st.integers(0, n))
    receivers = np.arange(n) if every_row else rng.permutation(n)[:m]
    transmitters = rng.integers(0, n, m)
    trusted = rng.random((m, n_classes)) < 0.7
    available = available_vector(surplus[transmitters], trusted)
    requested = requirement_vector(available, deficit[receivers])
    requested[rng.random(m) < 0.3] = 0.0
    return counts, surplus, receivers, transmitters, requested, rng.uniform(0.0, 1.0, m), every_row


class TestStagesMatchLoop:
    """transmission_buffers and apply_transfers equal a per-link loop bit
    for bit, on any ledger order."""

    @settings(max_examples=300, deadline=None)
    @given(stage_ledgers())
    def test_buffers_and_transfers(self, ledger):
        counts, surplus, receivers, transmitters, requested, p_drop, every_row = ledger
        buffered = transmission_buffers(requested, transmitters, surplus)
        assert np.array_equal(buffered, loop_buffers(requested, transmitters, surplus))
        delivered = deliver(buffered, p_drop)
        expect = counts.copy()
        for rx, tx, buf, got in zip(receivers, transmitters, buffered, delivered):
            expect[tx] -= buf
            expect[rx] += got
        got = apply_transfers(counts, receivers, transmitters, buffered, delivered)
        assert np.array_equal(got, expect)
        if every_row:
            got = apply_transfers(counts, slice(None), transmitters, buffered, delivered)
            assert np.array_equal(got, expect)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_episode_axis_equals_each_episode_alone(self, n, n_classes, episodes, seed):
        # E ledgers of one row per device over one device table, with each
        # episode's cells numbered after the last one's.
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 60, (n, n_classes)).astype(float)
        surplus, deficit = class_margins(counts, rng.integers(0, 40, (n, n_classes)))
        transmitters = rng.integers(0, n, (episodes, n))
        trusted = rng.random((episodes, n, n_classes)) < 0.7
        requested = requirement_vector(available_vector(surplus[transmitters], trusted), deficit)
        p_drop = rng.uniform(0.0, 1.0, (episodes, n))
        offsets = n * n_classes * np.arange(episodes)[:, None]
        cells = (_cells(transmitters.ravel(), n_classes).reshape(episodes, -1) + offsets).ravel()
        buffered = transmission_buffers(requested, transmitters, surplus, cells)
        delivered = deliver(buffered, p_drop)
        updated = apply_transfers(counts, slice(None), transmitters, buffered, delivered, cells)
        for e in range(episodes):
            alone = transmission_buffers(requested[e], transmitters[e], surplus)
            assert np.array_equal(buffered[e], alone)
            assert np.array_equal(delivered[e], deliver(alone, p_drop[e]))
            expect = apply_transfers(counts, slice(None), transmitters[e], alone, delivered[e])
            assert np.array_equal(updated[e], expect)
