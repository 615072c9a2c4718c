"""Agent behaviour: reward curve, the move table, and two learners.

Rewards follow a Gaussian bell over the mean of an agent's sensor inputs,
offset by ``c`` and sign-flipped as a whole for attackers, so an attacker's
reward is exactly the negative of a defender's for the same inputs.  Actions
are factored: each actuator contributes one independent group of discrete
labels, those of its kind in ``MOVES``, and the learner picks one label index
per group each turn.

Two interchangeable learners are provided: a small tanh Q-network trained by
one-step TD with experience replay, and a tabular Q-learner over a
discretized state, which doubles as a library-free reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

ATTACKER = "attacker"
DEFENDER = "defender"
HOLD = "hold"

DEFAULT_SIGMA = 0.03


def boundary_offset(sigma: float) -> float:
    """The ``c`` that puts the reward zero-crossing at 5 % mean-voltage deviation from mu."""
    return math.exp(-(0.05**2) / (2.0 * sigma**2))


@dataclass(frozen=True)
class RewardParams:
    """Reward curve of one agent; ``c`` left out puts the zero crossing at 5 % deviation for ``sigma``."""

    mu: float = 1.0
    sigma: float = DEFAULT_SIGMA
    c: float = None
    agent_class: str = DEFENDER

    def __post_init__(self) -> None:
        if not (self.mu > 0 and self.mu * self.mu < math.inf):  # reward squares x_mean - mu
            raise ValueError("mu must be > 0, with mu**2 finite")
        if not (self.sigma > 0 and 0 < self.sigma * self.sigma < math.inf):  # * gives inf where ** raises
            raise ValueError("sigma must be > 0, with sigma**2 finite and > 0")
        if self.c is None:
            object.__setattr__(self, "c", boundary_offset(self.sigma))
            if not 0.0 < self.c < 1.0:
                raise ValueError(f"sigma gives a default c of {self.c!r}, outside (0, 1); give 'c' explicitly")
        if not 0.0 < self.c < 1.0:
            raise ValueError("c must be in (0, 1)")
        if self.agent_class not in (ATTACKER, DEFENDER):
            raise ValueError(f"unknown agent class {self.agent_class!r}")


def reward(params: RewardParams, x_mean: float) -> float:
    """Bell-curve reward of the mean input; negated as a whole for attackers."""
    try:
        bell = math.exp(-((x_mean - params.mu) ** 2) / (2.0 * params.sigma**2)) - params.c
    except OverflowError:  # the square of a far-tail mean (a diverged solve's last point): the bell is 0
        bell = -params.c
    return bell if params.agent_class == DEFENDER else -bell


# -- the move table -----------------------------------------------------------

TRANSFORMER = "transformer"
GENERATOR = "generator"
LOAD = "load"

# Per-step actuator increments; moves clamped at device limits degrade to hold.
TAP_STEP = 1
GEN_P_STEP_MW = 0.1
GEN_Q_STEP_MVAR = 0.05
LOAD_SCALING_STEP = 0.1

# What each label adds to its device: tap steps, (MW, Mvar) or load scaling.
# A kind's label order is the order of its learner's action indices.
MOVES: dict[str, dict[str, float | tuple[float, float]]] = {
    TRANSFORMER: {"decrement": -TAP_STEP, HOLD: 0, "increment": TAP_STEP},
    GENERATOR: {"p_dec": (-GEN_P_STEP_MW, 0.0), "p_inc": (GEN_P_STEP_MW, 0.0),
                "q_dec": (0.0, -GEN_Q_STEP_MVAR), "q_inc": (0.0, GEN_Q_STEP_MVAR), HOLD: (0.0, 0.0)},
    LOAD: {"decrement": -LOAD_SCALING_STEP, HOLD: 0.0, "increment": LOAD_SCALING_STEP},
}
LABELS_BY_KIND: dict[str, tuple[str, ...]] = {kind: tuple(moves) for kind, moves in MOVES.items()}


@dataclass(frozen=True)
class ActuatorRef:
    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in MOVES:
            raise ValueError(f"unknown actuator kind {self.kind!r}")


# -- Q-network ----------------------------------------------------------------


@dataclass(frozen=True)
class QNetwork:
    """Two-layer perceptron, tanh hidden layer, identity output.

    Training updates the parameter arrays in place, so the group offsets are
    computed once, here: ``starts`` holds each group's first output column.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    group_sizes: tuple[int, ...]
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", np.array((0, *accumulate(self.group_sizes))[:-1], dtype=np.intp))

    def parameters(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


def init_qnetwork(n_in: int, group_sizes: tuple[int, ...], hidden: int, rng: np.random.Generator) -> QNetwork:
    """Weights uniform in [-0.1, 0.1], biases zero."""
    n_labels = sum(group_sizes)  # one Q-value output per label of every group
    return QNetwork(
        w1=rng.uniform(-0.1, 0.1, size=(hidden, n_in)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-0.1, 0.1, size=(n_labels, hidden)),
        b2=np.zeros(n_labels),
        group_sizes=tuple(group_sizes),
    )


def _forward_flat(net: QNetwork, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feed-forward on a batch (rows are inputs); returns the hidden layer and the
    (batch, labels of all groups) Q-values."""
    if x.shape[-1] != net.w1.shape[1]:
        raise ValueError(f"input has {x.shape[-1]} features, network expects {net.w1.shape[1]}")
    hidden = np.tanh(x @ net.w1.T + net.b1)
    return hidden, hidden @ net.w2.T + net.b2


def forward(net: QNetwork, x: np.ndarray) -> list[np.ndarray]:
    """Q-values for one input, split into one array per action group."""
    q = _forward_flat(net, np.asarray(x, dtype=float).reshape(1, -1))[1][0]
    return [q[lo:lo + n] for lo, n in zip(net.starts.tolist(), net.group_sizes)]


def _argmax(q: np.ndarray) -> int:
    """``np.argmax(q)`` for a short vector, on Python floats: the first maximum, or the first NaN."""
    values = q.tolist()
    total = sum(values)
    if total != total:  # a NaN, or inf + -inf: let numpy find the first NaN
        return int(np.argmax(q))
    return values.index(max(values))  # max keeps the first of equals, index finds it


def epsilon_greedy(
    q_groups: list[np.ndarray], epsilon: float, rng: np.random.Generator
) -> tuple[int, ...]:
    """One label index per group, argmax ties to the lowest; rng is drawn only when epsilon > 0."""
    chosen = []
    for q in q_groups:
        if epsilon > 0.0 and rng.random() < epsilon:
            chosen.append(int(rng.integers(len(q))))
        else:
            chosen.append(_argmax(q))
    return tuple(chosen)


# -- TD learning --------------------------------------------------------------


@dataclass(frozen=True)
class Transition:
    x: np.ndarray
    actions: tuple[int, ...]
    reward: float
    x_next: np.ndarray


def td_targets(net: QNetwork, batch: list[Transition], gamma: float) -> np.ndarray:
    """One-step targets r + gamma * max_a' Q(x', a') per transition and group."""
    q_next = _forward_flat(net, np.array([t.x_next for t in batch]))[1]
    best = np.maximum.reduceat(q_next, net.starts, axis=1)  # (batch, groups)
    rewards = np.array([t.reward for t in batch])
    return rewards[:, None] + gamma * best


def td_loss_and_grads(
    net: QNetwork,
    batch: list[Transition],
    targets: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Mean squared error on the chosen labels' q-values, with analytic gradients.

    Targets are fixed constants (semi-gradient); the mean runs over
    batch entries and groups.
    """
    x = np.array([t.x for t in batch])
    n_batch, n_groups = len(batch), len(net.group_sizes)
    hidden, q = _forward_flat(net, x)
    actions = np.fromiter(chain.from_iterable(t.actions for t in batch), np.intp, n_batch * n_groups)
    # Flat index of each chosen label's Q-value in the (batch, labels) array q.
    chosen = (np.arange(0, q.size, q.shape[1])[:, None] + net.starts
              + actions.reshape(n_batch, n_groups))
    diff = q.take(chosen) - targets
    dloss_dq = np.zeros_like(q)
    dloss_dq.put(chosen, 0.0 + 2.0 * diff)  # each cell once: 0.0 + 2 diff, as a loop would
    # Accumulate adds left to right; np.sum is pairwise and Python 3.12's sum() compensates.
    loss = np.cumsum((diff * diff).ravel())[-1]
    scale = 1.0 / (n_batch * n_groups)
    loss *= scale
    dloss_dq *= scale

    grad_w2 = dloss_dq.T @ hidden
    grad_b2 = dloss_dq.sum(axis=0)
    d_hidden = (dloss_dq @ net.w2) * (1.0 - hidden**2)
    grad_w1 = d_hidden.T @ x
    grad_b1 = d_hidden.sum(axis=0)
    return float(loss), [grad_w1, grad_b1, grad_w2, grad_b2]


def td_update(
    net: QNetwork,
    batch: list[Transition],
    gamma: float,
    learning_rate: float,
) -> float:
    """One gradient-descent step on the mean batch TD loss; returns the loss.

    A non-finite loss is returned with every parameter left untouched, and
    numpy's overflow warnings are silenced, so a diverging update prints nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        targets = td_targets(net, batch, gamma)
        loss, grads = td_loss_and_grads(net, batch, targets)
        if math.isfinite(loss):
            for param, grad in zip(net.parameters(), grads):
                param -= learning_rate * grad
    return loss


# -- learner state and agents -------------------------------------------------


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear anneal from start to end over decay_steps, then constant."""

    start: float = 1.0
    end: float = 0.05
    decay_steps: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 <= self.start <= 1.0:
            raise ValueError("epsilon_start must be in [0, 1]")
        if not 0.0 <= self.end <= 1.0:
            raise ValueError("epsilon_end must be in [0, 1]")
        if self.decay_steps < 0:
            raise ValueError("epsilon_decay_steps must be >= 0")

    def value(self, step: int) -> float:
        if step >= self.decay_steps:
            return self.end
        return self.start + (self.end - self.start) * (step / self.decay_steps)


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: list[Transition] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, item: Transition) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._cursor] = item
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, size: int, rng: np.random.Generator) -> list[Transition]:
        idx = rng.choice(len(self._items), size=size, replace=False)
        return [self._items[i] for i in idx.tolist()]


# Caps on the two sizes that allocate an array; README "Learners" says why these.
MAX_HIDDEN = 4096
MAX_N_BINS = 10_000


@dataclass(frozen=True)
class QNetHyper:
    gamma: float = 0.95
    learning_rate: float = 1e-3
    replay_capacity: int = 1000
    batch_size: int = 32
    hidden: int = 32
    epsilon: EpsilonSchedule = field(default_factory=EpsilonSchedule, metadata={"key": "epsilon_"})

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if not self.learning_rate >= 0.0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.batch_size > self.replay_capacity:
            raise ValueError("batch_size cannot exceed replay_capacity")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.hidden > MAX_HIDDEN:
            raise ValueError(f"hidden must be <= {MAX_HIDDEN}")


@dataclass(frozen=True)
class TabularHyper:
    alpha: float = 0.1
    gamma: float = 0.95
    n_bins: int = 21
    bin_lo: float = 0.85
    bin_hi: float = 1.15
    epsilon: EpsilonSchedule = field(default_factory=EpsilonSchedule, metadata={"key": "epsilon_"})

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if self.n_bins > MAX_N_BINS:
            raise ValueError(f"n_bins must be <= {MAX_N_BINS}")
        if not self.bin_lo < self.bin_hi:
            raise ValueError("bin_lo must be < bin_hi")


class _Learner:
    """What both learners share: group sizes and the exploration schedule.

    A turn is plain values: ``act(x)`` returns one label index per group, and
    ``learn(x, chosen, reward, x_next)`` is handed that turn whole.  Each
    learner defines ``act`` and ``learn`` on its own class.
    """

    def __init__(self, group_sizes: tuple[int, ...], hyper: QNetHyper | TabularHyper,
                 rng: np.random.Generator):
        self.group_sizes = tuple(group_sizes)
        self.hyper = hyper
        self.rng = rng
        self.step_count = 0

    @property
    def epsilon(self) -> float:
        return self.hyper.epsilon.value(self.step_count)


class QNetAgent(_Learner):
    """Q-network learner over the factored action groups, trained on replay batches."""

    def __init__(self, group_sizes: tuple[int, ...], n_in: int, hyper: QNetHyper,
                 rng: np.random.Generator):
        super().__init__(group_sizes, hyper, rng)
        self.net = init_qnetwork(n_in, self.group_sizes, hyper.hidden, rng)
        self.buffer = ReplayBuffer(hyper.replay_capacity)

    def act(self, x: np.ndarray) -> tuple[int, ...]:
        chosen = epsilon_greedy(forward(self.net, x), self.epsilon, self.rng)
        self.step_count += 1
        return chosen

    def learn(self, x: np.ndarray, chosen: tuple[int, ...], reward_value: float,
              x_next: np.ndarray) -> float | None:
        """The TD loss of one replay batch; None until the batch fills, or with no action group."""
        self.buffer.push(Transition(np.asarray(x, dtype=float), chosen, float(reward_value),
                                    np.asarray(x_next, dtype=float)))
        if not self.group_sizes or len(self.buffer) < self.hyper.batch_size:
            return None
        batch = self.buffer.sample(self.hyper.batch_size, self.rng)
        return td_update(self.net, batch, self.hyper.gamma, self.hyper.learning_rate)


class QTable:
    """Per-group Q tables over a discrete state space; rows start at zero."""

    def __init__(self, n_states: int, group_sizes: tuple[int, ...]):
        self.tables = [np.zeros((n_states, size)) for size in group_sizes]

    def update(self, state: int, actions: tuple[int, ...], reward_value: float,
               next_state: int, alpha: float, gamma: float) -> None:
        for t, a in zip(self.tables, actions):
            target = reward_value + gamma * float(np.max(t[next_state]))
            t[state, a] += alpha * (target - t[state, a])


class TabularQAgent(_Learner):
    """Classic Q-learning over a discretized observation; same act/learn contract.

    The default discretization bins the mean of the observation vector into
    ``n_bins`` equal-width bins over [bin_lo, bin_hi].
    """

    def __init__(self, group_sizes: tuple[int, ...], hyper: TabularHyper,
                 rng: np.random.Generator):
        super().__init__(group_sizes, hyper, rng)
        self.table = QTable(hyper.n_bins, self.group_sizes)

    def discretize(self, x: np.ndarray) -> int:
        h = self.hyper
        mean = float(np.mean(x))
        frac = (mean - h.bin_lo) / (h.bin_hi - h.bin_lo)
        # Clamped before int(), which cannot take the inf a subnormal-wide range gives.
        return int(min(max(frac * h.n_bins, 0), h.n_bins - 1))

    def act(self, x: np.ndarray) -> tuple[int, ...]:
        state = self.discretize(x)
        chosen = epsilon_greedy([t[state] for t in self.table.tables], self.epsilon, self.rng)
        self.step_count += 1
        return chosen

    def learn(self, x: np.ndarray, chosen: tuple[int, ...], reward_value: float,
              x_next: np.ndarray) -> None:
        self.table.update(self.discretize(x), chosen, float(reward_value), self.discretize(x_next),
                          self.hyper.alpha, self.hyper.gamma)
