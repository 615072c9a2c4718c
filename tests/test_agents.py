import hashlib
import math
import warnings
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridduel import agents
from gridduel.agents import (
    ATTACKER,
    DEFAULT_SIGMA,
    DEFENDER,
    LABELS_BY_KIND,
    ActuatorRef,
    EpsilonSchedule,
    QNetAgent,
    QNetHyper,
    QNetwork,
    QTable,
    ReplayBuffer,
    RewardParams,
    TabularHyper,
    TabularQAgent,
    Transition,
    boundary_offset,
    epsilon_greedy,
    forward,
    init_qnetwork,
    reward,
    td_loss_and_grads,
    td_targets,
    td_update,
)

DEF = RewardParams(agent_class=DEFENDER)
ATT = RewardParams(agent_class=ATTACKER)


# -- reward curve ---------------------------------------------------------------


def test_defender_reward_at_nominal():
    assert abs(reward(DEF, 1.0) - (1.0 - boundary_offset(DEFAULT_SIGMA))) < 1e-12


def test_rewards_cross_zero_at_five_percent():
    for x in (0.95, 1.05):
        assert abs(reward(DEF, x)) < 1e-9
        assert abs(reward(ATT, x)) < 1e-9


def test_attacker_reward_at_ten_percent_matches_closed_form():
    # c - exp(-0.10^2 / (2 * 0.03^2)), evaluated at 30 decimal digits.
    assert abs(reward(ATT, 1.10) - 0.2454862886378234) < 1e-12


def test_attacker_is_pointwise_negation_of_defender(rng):
    for x in rng.uniform(0.8, 1.2, size=1000):
        assert reward(ATT, x) == -reward(DEF, x)


def test_reward_is_even_about_mu(rng):
    for d in rng.uniform(0.0, 0.4, size=200):
        x_plus = 1.0 + d
        x_minus = 2.0 - x_plus  # exact mirror image of x_plus about mu = 1
        assert reward(DEF, x_plus) == reward(DEF, x_minus)
        assert reward(ATT, x_plus) == reward(ATT, x_minus)


def test_reward_sign_boundary(rng):
    for x in rng.uniform(0.8, 1.2, size=500):
        dev = abs(x - 1.0)
        if abs(dev - 0.05) < 1e-12:
            continue
        assert (reward(DEF, x) > 0) == (dev < 0.05)
        assert (reward(ATT, x) > 0) == (dev > 0.05)


def test_boundary_offset_recovers_default():
    assert RewardParams().c == boundary_offset(DEFAULT_SIGMA)
    assert abs(boundary_offset(0.03) - 0.24935220877729620) < 1e-15


def test_reward_params_validation():
    with pytest.raises(ValueError):
        RewardParams(sigma=0.0)
    with pytest.raises(ValueError):
        RewardParams(c=1.0)
    with pytest.raises(ValueError):
        RewardParams(agent_class="spectator")


@pytest.mark.parametrize("index", [True, False, 1.0, "0", None, np.int64(1), -1],
                         ids=["true", "false", "float", "str", "none", "numpy_int", "negative"])
def test_actuator_ref_rejects_an_index_that_is_not_a_non_negative_int(index):
    # True would otherwise name transformer 1 wherever the ref is used as an index.
    with pytest.raises(ValueError, match="^index must be a non-negative integer"):
        ActuatorRef("transformer", index)


@pytest.mark.parametrize("value", [True, 2.5, 2.0, np.int64(2)],
                         ids=["true", "float", "whole_float", "numpy_int"])
@pytest.mark.parametrize("make, name", [
    (lambda v: QNetHyper(replay_capacity=v, batch_size=1), "replay_capacity"),
    (lambda v: QNetHyper(batch_size=v), "batch_size"),
    (lambda v: QNetHyper(hidden=v), "hidden"),
    (lambda v: TabularHyper(n_bins=v), "n_bins"),
    (lambda v: EpsilonSchedule(decay_steps=v), "epsilon_decay_steps"),
], ids=["replay_capacity", "batch_size", "hidden", "n_bins", "decay_steps"])
def test_learner_sizes_must_be_ints(make, name, value):
    # Each ran from Python and failed in the run or left a saved config that does not reload.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        make(value)


@pytest.mark.parametrize("value", [True, "0.5", [0.5]], ids=["true", "str", "list"])
@pytest.mark.parametrize("make, name", [
    (lambda v: RewardParams(mu=v), "mu"),
    (lambda v: RewardParams(sigma=v), "sigma"),
    (lambda v: RewardParams(c=v), "c"),
    (lambda v: EpsilonSchedule(start=v), "epsilon_start"),
    (lambda v: EpsilonSchedule(end=v), "epsilon_end"),
    (lambda v: QNetHyper(gamma=v), "gamma"),
    (lambda v: QNetHyper(learning_rate=v), "learning_rate"),
    (lambda v: TabularHyper(alpha=v), "alpha"),
    (lambda v: TabularHyper(gamma=v), "gamma"),
    (lambda v: TabularHyper(bin_lo=v), "bin_lo"),
    (lambda v: TabularHyper(bin_hi=v), "bin_hi"),
], ids=["mu", "sigma", "c", "epsilon_start", "epsilon_end", "qnet_gamma", "learning_rate", "alpha",
        "tabular_gamma", "bin_lo", "bin_hi"])
def test_learner_and_reward_numbers_must_be_numbers(make, name, value):
    # A bool ran from Python and left a saved config that does not reload; a string or a list failed late.
    with pytest.raises(ValueError, match=f"^{name}: expected a number$"):
        make(value)


# -- q-network forward ----------------------------------------------------------


def test_forward_all_zero_network_outputs_zero():
    net = QNetwork(
        w1=np.zeros((8, 3)), b1=np.zeros(8),
        w2=np.zeros((5, 8)), b2=np.zeros(5),
        group_sizes=(3, 2),
    )
    grouped = forward(net, np.array([0.3, -0.1, 2.0]))
    assert [g.tolist() for g in grouped] == [[0.0, 0.0, 0.0], [0.0, 0.0]]


def test_forward_wiring_with_identity_weights():
    # w1 routes inputs 1:1 into the first three hidden units, w2 copies the
    # hidden layer to the outputs, so q must be tanh(x) padded with one zero.
    w1 = np.zeros((4, 3))
    for i in range(3):
        w1[i, i] = 1.0
    net = QNetwork(w1=w1, b1=np.zeros(4), w2=np.eye(4), b2=np.zeros(4),
                   group_sizes=(2, 2))
    x = np.array([0.4, -1.2, 0.05])
    grouped = forward(net, x)
    want = np.concatenate([np.tanh(x), [0.0]])
    assert np.array_equal(np.concatenate(grouped), want)


def test_forward_output_is_lipschitz_in_input(rng):
    net = init_qnetwork(6, (3, 5), hidden=16, rng=rng)
    x = rng.uniform(-1, 1, size=6)
    delta = 1e-3
    perturbed = x + rng.uniform(-delta, delta, size=6)
    q0 = np.concatenate(forward(net, x))
    q1 = np.concatenate(forward(net, perturbed))
    bound = (
        np.max(np.sum(np.abs(net.w2), axis=1))
        * np.max(np.sum(np.abs(net.w1), axis=1))
        * np.max(np.abs(perturbed - x))
    )
    assert np.max(np.abs(q1 - q0)) <= bound + 1e-15


def test_forward_rejects_dimension_mismatch(rng):
    net = init_qnetwork(4, (3,), hidden=8, rng=rng)
    with pytest.raises(ValueError, match="features"):
        forward(net, np.zeros(5))


# -- action selection -------------------------------------------------------------


def test_select_actions_greedy_argmax(rng):
    net = QNetwork(
        w1=np.zeros((2, 2)), b1=np.zeros(2),
        w2=np.zeros((5, 2)), b2=np.array([0.1, 0.9, 0.3, -1.0, 0.4]),
        group_sizes=(2, 3),
    )
    assert epsilon_greedy(forward(net, np.zeros(2)), 0.0, rng) == (1, 2)


def test_select_actions_tie_breaks_to_lowest_index(rng):
    net = QNetwork(w1=np.zeros((2, 2)), b1=np.zeros(2),
                   w2=np.zeros((4, 2)), b2=np.zeros(4), group_sizes=(2, 2))
    assert epsilon_greedy(forward(net, np.zeros(2)), 0.0, rng) == (0, 0)


def test_select_actions_epsilon_one_is_reproducible():
    net = QNetwork(w1=np.zeros((2, 3)), b1=np.zeros(2),
                   w2=np.zeros((6, 2)), b2=np.zeros(6), group_sizes=(3, 3))
    picks_a = [epsilon_greedy(forward(net, np.zeros(3)), 1.0, np.random.default_rng(5)) for _ in range(1)]
    picks_b = [epsilon_greedy(forward(net, np.zeros(3)), 1.0, np.random.default_rng(5)) for _ in range(1)]
    assert picks_a == picks_b


def test_select_actions_with_epsilon_zero_ignores_rng_state(rng):
    net = init_qnetwork(3, (3, 3), hidden=4, rng=rng)
    x = np.array([0.2, 0.4, -0.3])
    a = epsilon_greedy(forward(net, x), 0.0, np.random.default_rng(1))
    untouched = np.random.default_rng(999)
    before = untouched.bit_generator.state
    b = epsilon_greedy(forward(net, x), 0.0, untouched)
    assert a == b
    assert untouched.bit_generator.state == before  # a greedy pick draws nothing


# -- TD learning -------------------------------------------------------------------


def _constant_batch(n, reward_value=0.0):
    x = np.array([0.5, -0.2])
    return [Transition(x, (0,), reward_value, x) for _ in range(n)]


def test_td_update_fixed_point_has_zero_loss_and_gradient():
    net = QNetwork(w1=np.zeros((4, 2)), b1=np.zeros(4),
                   w2=np.zeros((1, 4)), b2=np.zeros(1), group_sizes=(1,))
    batch = _constant_batch(3, reward_value=0.0)
    targets = td_targets(net, batch, gamma=0.0)
    loss, grads = td_loss_and_grads(net, batch, targets)
    assert loss == 0.0
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)


def _flat_params(net):
    return np.concatenate([p.ravel() for p in net.parameters()])


def _set_params(net, vec):
    offset = 0
    for p in net.parameters():
        p[...] = vec[offset : offset + p.size].reshape(p.shape)
        offset += p.size


def _numeric_gradient(net, batch, targets, h=1e-5):
    base = _flat_params(net).copy()
    grad = np.zeros_like(base)
    for i in range(base.size):
        for sign, slot in ((+1, 0), (-1, 1)):
            vec = base.copy()
            vec[i] += sign * h
            _set_params(net, vec)
            value = td_loss_and_grads(net, batch, targets)[0]
            if slot == 0:
                plus = value
            else:
                minus = value
        grad[i] = (plus - minus) / (2 * h)
    _set_params(net, base)
    return grad


@pytest.mark.parametrize("seed", range(10))
def test_td_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    net = init_qnetwork(3, (3, 2), hidden=6, rng=rng)
    batch = [
        Transition(
            rng.uniform(-1, 1, size=3),
            (int(rng.integers(3)), int(rng.integers(2))),
            float(rng.normal()),
            rng.uniform(-1, 1, size=3),
        )
        for _ in range(5)
    ]
    targets = td_targets(net, batch, gamma=0.9)
    _, analytic = td_loss_and_grads(net, batch, targets)
    flat_analytic = np.concatenate([g.ravel() for g in analytic])
    numeric = _numeric_gradient(net, batch, targets)
    rel = np.abs(flat_analytic - numeric) / np.maximum(
        np.maximum(np.abs(flat_analytic), np.abs(numeric)), 1.0
    )
    assert float(np.max(rel)) < 1e-4


def reference_td_loss_and_grads(net, batch, targets):
    """The per-cell loop td_loss_and_grads replaced with fancy indexing."""
    x = np.stack([t.x for t in batch])
    offs = (0, *accumulate(net.group_sizes))
    hidden = np.tanh(x @ net.w1.T + net.b1)
    q = hidden @ net.w2.T + net.b2
    dloss_dq = np.zeros_like(q)
    loss = 0.0
    for b, t in enumerate(batch):
        for g, a in enumerate(t.actions):
            col = offs[g] + a
            diff = q[b, col] - targets[b, g]
            loss += diff * diff
            dloss_dq[b, col] += 2.0 * diff
    scale = 1.0 / (len(batch) * len(net.group_sizes))
    loss *= scale
    dloss_dq *= scale
    d_hidden = (dloss_dq @ net.w2) * (1.0 - hidden**2)
    return float(loss), [d_hidden.T @ x, d_hidden.sum(axis=0), dloss_dq.T @ hidden,
                         dloss_dq.sum(axis=0)]


@pytest.mark.parametrize("seed", range(5))
def test_td_loss_and_grads_bits_match_per_cell_loop(seed):
    rng = np.random.default_rng(seed)
    group_sizes = (3, 5, 3, 3, 5)
    net = init_qnetwork(7, group_sizes, hidden=16, rng=rng)
    batch = [
        Transition(
            rng.uniform(0.9, 1.1, size=7),
            tuple(int(rng.integers(size)) for size in group_sizes),
            float(rng.normal()),
            rng.uniform(0.9, 1.1, size=7),
        )
        for _ in range(32)
    ]
    targets = td_targets(net, batch, gamma=0.95)
    loss, grads = td_loss_and_grads(net, batch, targets)
    want_loss, want_grads = reference_td_loss_and_grads(net, batch, targets)
    assert loss == want_loss
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in want_grads]


# Ties and signed zeros, with the odd NaN, infinity or extreme value.
Q_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5]) | st.floats()
LEARNER_BITS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def reference_td_targets(net, batch, gamma):
    """The per-group loop td_targets replaced with one reduceat."""
    q_next = agents._forward_flat(net, np.stack([t.x_next for t in batch]))[1]
    offs = (0, *accumulate(net.group_sizes))
    rewards = np.array([t.reward for t in batch])
    targets = np.empty((len(batch), len(net.group_sizes)))
    for g in range(len(net.group_sizes)):
        best = q_next[:, offs[g] : offs[g + 1]].max(axis=1)
        targets[:, g] = rewards + gamma * best
    return targets


@LEARNER_BITS
@given(data=st.data())
def test_td_targets_bits_match_per_group_loop(data):
    group_sizes = tuple(data.draw(st.lists(st.sampled_from([3, 5]), min_size=1, max_size=8)))
    n_batch = data.draw(st.integers(1, 40))
    # A few distinct values spread over the whole array, so most groups hold ties.
    pool = np.array(data.draw(st.lists(Q_VALUES, min_size=1, max_size=6)))
    pick = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    q_next = pool[pick.integers(len(pool), size=(n_batch, sum(group_sizes)))]
    rewards = pool[pick.integers(len(pool), size=n_batch)].tolist()
    gamma = data.draw(st.sampled_from([0.0, 0.5, 0.95]))
    net = init_qnetwork(2, group_sizes, hidden=3, rng=np.random.default_rng(0))
    batch = [Transition(np.zeros(2), (0,) * len(group_sizes), r, np.zeros(2)) for r in rewards]
    # Both sides see the drawn Q-values, so ties and signed zeros reach the max.
    with mock.patch.object(agents, "_forward_flat", lambda net, x: (None, q_next)), \
            np.errstate(invalid="ignore", over="ignore"):  # 0 * inf, and inf - inf
        got, want = td_targets(net, batch, gamma), reference_td_targets(net, batch, gamma)
    # Every NaN counts as one NaN: numpy's add loops keep either operand's NaN, by
    # length and alignment, and a NaN target makes td_update raise before any update.
    assert got.shape == want.shape
    assert np.where(np.isnan(got), np.nan, got).tobytes() == np.where(np.isnan(want), np.nan, want).tobytes()


def reference_epsilon_greedy(q_groups, epsilon, rng):
    """epsilon_greedy with np.argmax for every greedy pick."""
    chosen = []
    for q in q_groups:
        if epsilon > 0.0 and rng.random() < epsilon:
            chosen.append(int(rng.integers(len(q))))
        else:
            chosen.append(int(np.argmax(q)))
    return tuple(chosen)


@LEARNER_BITS
@given(data=st.data())
def test_epsilon_greedy_matches_argmax_and_rng_use(data):
    q_groups = [np.array(data.draw(st.lists(Q_VALUES, min_size=size, max_size=size)))
                for size in data.draw(st.lists(st.sampled_from([3, 5]), min_size=1, max_size=10))]
    epsilon = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    seed = data.draw(st.integers(0, 2**32))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert epsilon_greedy(q_groups, epsilon, rng) == reference_epsilon_greedy(q_groups, epsilon, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_epsilon_greedy_nan_rows_pick_the_first_nan():
    nan, inf = float("nan"), float("inf")
    rows = [[1.0, nan, 2.0], [nan, nan, 0.0], [inf, -inf, 0.0, nan, 3.0], [inf, -inf, 0.0]]
    q_groups = [np.array(row) for row in rows]
    assert epsilon_greedy(q_groups, 0.0, np.random.default_rng(0)) == (1, 0, 3, 0)


@LEARNER_BITS
@given(n_pushed=st.integers(1, 120), capacity=st.integers(1, 80), data=st.data())
def test_replay_sample_returns_the_indexed_transitions_in_order(n_pushed, capacity, data):
    buf = ReplayBuffer(capacity)
    for i in range(n_pushed):
        buf.push(Transition(np.array([float(i)]), (0,), 0.0, np.zeros(1)))
    size = data.draw(st.integers(1, len(buf)))
    seed = data.draw(st.integers(0, 2**32))
    got = buf.sample(size, np.random.default_rng(seed))
    idx = np.random.default_rng(seed).choice(len(buf), size=size, replace=False)
    want = [buf._items[int(i)] for i in idx]
    assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


def test_td_update_converges_to_reward_on_constant_transition(rng):
    net = init_qnetwork(2, (1,), hidden=8, rng=rng)
    x = np.array([0.5, -0.2])
    batch = [Transition(x, (0,), 0.7, x)]
    for step in range(5000):
        td_update(net, batch, gamma=0.0, learning_rate=1e-3)
        if abs(forward(net, x)[0][0] - 0.7) < 1e-3:
            break
    assert abs(forward(net, x)[0][0] - 0.7) < 1e-3
    assert step < 5000


def test_td_update_keeps_weights_finite(rng):
    net = init_qnetwork(2, (2,), hidden=4, rng=rng)
    batch = [Transition(np.ones(2), (0,), 1.0, np.ones(2)) for _ in range(4)]
    for _ in range(50):
        td_update(net, batch, gamma=0.95, learning_rate=1e-2)
    assert all(np.all(np.isfinite(p)) for p in net.parameters())


def _nan_reward(net):
    return [Transition(np.ones(2), (0,), float("nan"), np.ones(2))], 0.0, 1e-3


def _overflowing_q(net):
    net.w2[...] = 1e200  # Q-values near 1e199, whose squared error overflows
    return [Transition(np.ones(2), (0,), 0.0, np.ones(2))], 0.5, 1.0


@pytest.mark.parametrize("setup, want", [(_nan_reward, "nan"), (_overflowing_q, "inf")],
                         ids=["nan", "overflow"])
def test_td_update_returns_a_diverged_loss_and_keeps_every_parameter(rng, setup, want):
    net = init_qnetwork(2, (2,), hidden=4, rng=rng)
    batch, gamma, learning_rate = setup(net)
    before = [param.tobytes() for param in net.parameters()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = td_update(net, batch, gamma=gamma, learning_rate=learning_rate)
    assert repr(loss) == want
    assert [param.tobytes() for param in net.parameters()] == before


# -- schedules, buffers, agents ----------------------------------------------------


def test_epsilon_schedule_endpoints():
    sched = EpsilonSchedule(start=1.0, end=0.05, decay_steps=1000)
    assert sched.value(0) == 1.0
    assert sched.value(500) == pytest.approx(0.525)
    assert sched.value(1000) == 0.05
    assert sched.value(5000) == 0.05


def test_replay_buffer_ring_overwrite():
    buf = ReplayBuffer(3)
    items = [Transition(np.array([float(i)]), (0,), 0.0, np.array([0.0])) for i in range(5)]
    for item in items:
        buf.push(item)
    assert len(buf) == 3
    kept = {item.x[0] for item in buf._items}
    assert kept == {2.0, 3.0, 4.0}


def _tap_groups(n=2):
    return (len(LABELS_BY_KIND["transformer"]),) * n


def test_replay_buffer_needs_room_for_one_transition():
    with pytest.raises(ValueError, match="capacity must be >= 1"):
        ReplayBuffer(0)


def test_qnet_agent_act_is_deterministic_given_seed():
    def make():
        return QNetAgent(_tap_groups(), n_in=3, hyper=QNetHyper(batch_size=2, replay_capacity=8),
                         rng=np.random.default_rng(99))

    a, b = make(), make()
    xs = [np.array([1.0, 1.01, 0.99]), np.array([1.02, 1.0, 1.0])]
    for n, x in enumerate(xs):
        epsilon = a.hyper.epsilon.value(n)
        ca, cb = a.act(x, epsilon), b.act(x, epsilon)
        assert ca == cb
        assert a.learn(x, ca, 0.1, x) == b.learn(x, cb, 0.1, x)


# poc's attacker (six taps) and defender (four generators, six loads) action groups.
POC_GROUP_SIZES = ((3,) * 6, (5,) * 4 + (3,) * 6)
POC_LEARNER_DIGEST = "6e33f8591cf7521ff7fe0d29694368921d10f7c0a6627d89c9467a821a8cd622"


def drive_poc_shaped(learners):
    """Alternate two learners over 150 seeded steps of random 14-bus observations.

    Returns a sha256 fed with every chosen action and the repr of every loss
    ``learn`` returns, and the list of those losses.
    """
    world = np.random.default_rng(7)
    digest = hashlib.sha256()
    x = world.uniform(0.9, 1.1, size=14)
    losses = []
    for step in range(150):
        agent = learners[step % 2]
        chosen = agent.act(x, agent.hyper.epsilon.value(step // 2))  # the agent's own turn index
        digest.update(repr(chosen).encode())
        x_next = world.uniform(0.9, 1.1, size=14)
        losses.append(agent.learn(x, chosen, float(world.normal()), x_next))
        x = x_next
        digest.update(repr(losses[-1]).encode())
    return digest, losses


def test_poc_shaped_learners_keep_their_bits():
    """Two poc-shaped Q-net learners, batch 32, alternate for 150 seeded steps.

    One sha256 covers every chosen action, the repr of every loss ``learn``
    returns and the final parameters' bytes, so any change to the bits of
    ``act``, replay sampling or the TD update fails here.  Epsilon decays over
    60 steps so both the explore and the greedy branch run, and the buffer of
    64 wraps.
    """
    hyper = QNetHyper(replay_capacity=64, batch_size=32, hidden=32,
                      epsilon=EpsilonSchedule(decay_steps=60))
    learners = [QNetAgent(sizes, 14, hyper, np.random.default_rng(seed))
              for seed, sizes in enumerate(POC_GROUP_SIZES, start=5)]
    digest, losses = drive_poc_shaped(learners)
    for agent in learners:
        for param in agent.net.parameters():
            digest.update(param.tobytes())
    assert sum(loss is not None for loss in losses) == 2 * (75 - 32 + 1)
    assert digest.hexdigest() == POC_LEARNER_DIGEST


POC_TABULAR_DIGEST = "09cf1ccb8499b3aa6b0e4c558a03c13e5f92083d96547f084dedb1466c7de504"


def test_poc_shaped_tabular_learners_keep_their_bits():
    """The same 150-step drive with two tabular learners.

    The sha256 covers every chosen action and the final Q tables' bytes, so
    any change to the bits of the tabular ``act`` or ``QTable.update`` fails
    here.  Eight narrow bins over the observations' spread make the visited
    rows differ from step to step.
    """
    hyper = TabularHyper(n_bins=8, bin_lo=0.97, bin_hi=1.03, epsilon=EpsilonSchedule(decay_steps=60))
    learners = [TabularQAgent(sizes, hyper, np.random.default_rng(seed))
                for seed, sizes in enumerate(POC_GROUP_SIZES, start=5)]
    digest, losses = drive_poc_shaped(learners)
    for agent in learners:
        for table in agent.table.tables:
            digest.update(table.tobytes())
    assert losses == [None] * 150
    assert digest.hexdigest() == POC_TABULAR_DIGEST


# -- tabular learner -----------------------------------------------------------------


def _chain_step(state, action):
    """3-state chain: left pays 0.1 now, landing on state 2 pays 1.0."""
    nxt = max(state - 1, 0) if action == 0 else min(state + 1, 2)
    r = 0.1 if action == 0 else (1.0 if nxt == 2 else 0.0)
    return nxt, r


def _value_iteration(gamma=0.9, sweeps=500):
    q = np.zeros((3, 2))
    for _ in range(sweeps):
        v = q.max(axis=1)
        for s in range(3):
            for a in range(2):
                nxt, r = _chain_step(s, a)
                q[s, a] = r + gamma * v[nxt]
    return q


def test_tabular_agent_recovers_value_iteration_policy():
    optimal = np.argmax(_value_iteration(), axis=1)
    table = QTable(3, (2,))
    rng = np.random.default_rng(2024)
    state = 0
    for _ in range(10000):
        (action,) = epsilon_greedy([t[state] for t in table.tables], 0.3, rng)
        nxt, r = _chain_step(state, action)
        table.update(state, (action,), r, nxt, alpha=0.5, gamma=0.9)
        state = nxt
    greedy = [int(np.argmax(table.tables[0][s])) for s in range(3)]
    assert greedy == list(optimal)
    assert greedy == [1, 1, 1]


def test_qtable_alpha_zero_never_changes():
    table = QTable(4, (3,))
    before = [t.copy() for t in table.tables]
    table.update(1, (2,), 5.0, 2, alpha=0.0, gamma=0.9)
    assert all(np.array_equal(a, b) for a, b in zip(before, table.tables))


def test_qtable_unvisited_state_row_is_zero():
    table = QTable(5, (2, 3))
    assert all(np.array_equal(t[4], np.zeros(t.shape[1])) for t in table.tables)


def test_tabular_agent_discretizes_mean_voltage():
    agent = TabularQAgent(_tap_groups(1), TabularHyper(), np.random.default_rng(0))
    assert agent.discretize(np.array([0.85, 0.85])) == 0
    assert agent.discretize(np.array([1.15])) == 20
    assert agent.discretize(np.array([1.0])) == 10
    assert agent.discretize(np.array([0.0])) == 0  # clamped below range


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(lo=st.floats(-2.0, 2.0), width=st.floats(5e-324, 4.0), n_bins=st.integers(1, 10_000),
       mean=st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 5e-324, 1.0]))
def test_discretize_keeps_every_bin_int_could_compute(lo, width, n_bins, mean):
    hi = lo + width
    assume(lo < hi)
    agent = TabularQAgent((3,), TabularHyper(n_bins=n_bins, bin_lo=lo, bin_hi=hi), np.random.default_rng(0))
    got = agent.discretize(np.array([mean]))
    frac = (mean - lo) / (hi - lo)
    if math.isinf(frac * n_bins):  # int() raised here before the clamp moved ahead of it
        assert got == (n_bins - 1 if frac > 0 else 0)
    else:
        assert got == min(max(int(frac * n_bins), 0), n_bins - 1)


def test_subnormal_bin_range_clamps_to_the_edge_bins():
    agent = TabularQAgent((3,), TabularHyper(bin_lo=0.0, bin_hi=5e-324), np.random.default_rng(0))
    assert agent.discretize(np.array([1.0])) == 20
    assert agent.discretize(np.array([-1.0])) == 0


def test_tabular_agent_act_learn_contract(rng):
    agent = TabularQAgent(_tap_groups(1), TabularHyper(), rng)
    x = np.array([1.0, 1.0])
    chosen = agent.act(x, 0.0)
    assert chosen == (0,)  # all-zero table ties break to index 0
    agent.learn(x, chosen, 1.0, x)
    # One update with alpha=0.1, gamma=0.95 from zero: Q = 0.1 * (1.0 + 0).
    assert agent.table.tables[0][agent.discretize(x), 0] == pytest.approx(0.1)
