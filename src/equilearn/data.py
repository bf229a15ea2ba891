"""Trajectory collection as deduplicated layered game trees, plus the
dataset machinery around them: candidate-tree selection by value
spread, minority-value up-sampling, replay storage with per-timestep
uniform sampling, and edge datasets for value-model fitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bandit import cdf_rows, draw_rows
from .games.base import Game, GameState, legal_masks
from .harness import write_atomic


@dataclass
class TreeNode:
    """A state's node in a rollout tree or a search."""
    state: GameState
    value: np.ndarray | None             # per-player value estimate; None
                                         # while the node is pending
    cdf: np.ndarray | None               # (N, A_max) per-player CDF rows;
                                         # None at a terminal or pending
    visit_count: int = 1
    children: dict = field(default_factory=dict)   # joint action -> TreeNode

    @property
    def timestep(self) -> int:
        return self.state.timestep


class GameTree:
    """Layered record of simulated states; one node per distinct state."""

    def __init__(self, game: Game):
        self.game = game
        self.layers: list[dict] = [dict()
                                   for _ in range(game.horizon + 1)]

    def node_count(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def layer_of(self, h: int) -> list[TreeNode]:
        if not (0 <= h <= self.game.horizon):
            raise ValueError(f"layer {h} outside [0, {self.game.horizon}]")
        return list(self.layers[h].values())


class UniformPolicySource:
    """Prediction source for the first iteration: uniform policies over
    the legal actions and midscale value guesses.

    Every prediction source has this protocol: ``predict(game, states)``
    takes a list of k non-terminal states and returns per-player values
    ``(k, N)`` and per-player legal policies ``(k, N, A_max)``: each row
    normalized over its player's legal actions, zero on illegal ones and
    past the player's action count. Rollouts and the search draw from
    these rows as they are.
    """

    def predict(self, game: Game, states: list) -> tuple:
        masks = legal_masks(game, states)
        return (np.full((len(states), game.num_players), 0.5),
                masks / np.add.reduce(masks, axis=-1, keepdims=True))


class PendingNodes:
    """New non-terminal rollout or search nodes, each pending (value and
    CDF rows None) until it is predicted together with every other
    pending node in one ``source.predict`` call (:meth:`flush`).

    Rollouts and the search flush when a walk steps onto a pending node
    (:meth:`ready`) and when the last walk ends. A walk reads only the
    CDF rows of the nodes it steps onto, so it makes the same draws as
    it would with each node predicted when it is made; and a source
    gives a state the same bits in any batch, so every node gets the
    same value and rows.
    """

    def __init__(self, game: Game, source):
        self.game = game
        self.source = source
        self.nodes: list[TreeNode] = []

    def add(self, node: TreeNode) -> TreeNode:
        self.nodes.append(node)
        return node

    def ready(self, node: TreeNode):
        """Flush if the non-terminal ``node`` is still pending."""
        if node.cdf is None:
            self.flush()

    def flush(self):
        """Predict every pending node in one call: its values, and its
        legal policies kept as per-player CDF rows."""
        if not self.nodes:
            return
        values, policies = self.source.predict(
            self.game, [node.state for node in self.nodes])
        for node, value, cdf in zip(self.nodes, values, cdf_rows(policies)):
            node.value = value
            node.cdf = cdf
        self.nodes.clear()


def _sample_action(game, node, player, randomized, rng) -> int:
    if randomized:
        legal = game.legal_actions(node.state, player)
        return int(legal[rng.integers(len(legal))])
    return int(draw_rows(node.cdf[player], rng.random()))


def generate_tree(game: Game, source, num_sims: int, randomize=None,
                  rng: np.random.Generator | None = None) -> GameTree:
    """Build a deduplicated game tree from ``num_sims`` rollouts.

    Each simulation walks from a (possibly repeated) root, drawing each
    on-policy player's action from its row of the node's CDF rows (the
    ``source``'s legal policies, in the protocol of
    :class:`UniformPolicySource`), until it reaches a leaf: a terminal
    node or a state not yet hanging off the current node. Repeat states
    within a layer merge into one node; visit counts increment along the
    walk.

    A new non-terminal node stays pending (:class:`PendingNodes`) until
    a walk steps onto it or the last simulation ends, so the source
    predicts many nodes per call; the tree, its values and rows, and the
    generator's stream are those of predicting each node when it is made.

    ``randomize`` selects partially random rollouts: ``None`` keeps all
    players on-policy, a float flags each player independently with
    that probability per trajectory, and a boolean sequence fixes the
    randomized players for every trajectory.
    """
    if num_sims < 1:
        raise ValueError("need at least one simulation")
    if rng is None:
        rng = np.random.default_rng()
    tree = GameTree(game)
    pending = PendingNodes(game, source)
    n = game.num_players

    def visit(state: GameState) -> TreeNode:
        """The node for ``state``: a new one, pending unless terminal, or
        a merged one visited again."""
        layer = tree.layers[state.timestep]
        key = state.key()
        node = layer.get(key)
        if node is not None:
            node.visit_count += 1
        elif state.terminal:
            node = layer[key] = TreeNode(
                state=state, value=game.terminal_returns(state), cdf=None)
        else:
            node = layer[key] = pending.add(
                TreeNode(state=state, value=None, cdf=None))
        return node

    for _ in range(num_sims):
        start = game.sample_start(rng)
        if randomize is None:
            random_players = [False] * n
        elif isinstance(randomize, float):
            random_players = list(rng.random(n) < randomize)
        else:
            random_players = list(randomize)
        node = visit(start)
        while not node.state.terminal:
            pending.ready(node)
            joint = tuple(_sample_action(game, node, p, random_players[p],
                                         rng) for p in range(n))
            child = node.children.get(joint)
            if child is not None:
                child.visit_count += 1
                node = child
                continue
            node.children[joint] = visit(game.step(node.state, joint)
                                         .next_state)
            break  # a new edge is a leaf: the simulation ends here
    pending.flush()
    return tree


def _tree_cv_score(tree: GameTree) -> float:
    cvs = []
    for layer in tree.layers:
        if not layer:
            continue
        vals = np.array([float(np.mean(node.value))
                         for node in layer.values()])
        mean = vals.mean()
        if abs(mean) < 1e-9:
            continue
        cvs.append(vals.std() / abs(mean))
    return float(np.mean(cvs)) if cvs else 0.0


def select_tree_by_cv(trees: list[GameTree]) -> GameTree:
    """Whole-tree choice by mean per-layer coefficient of variation.

    Per layer: population std over mean of per-node scalar values (mean
    over players), skipping near-zero-mean layers; the tree with the
    highest mean layer CV wins, ties going to the first.
    """
    if not trees:
        raise ValueError("need at least one tree")
    scores = [_tree_cv_score(t) for t in trees]
    return trees[int(np.argmax(scores))]


# -- value up-sampling -----------------------------------------------------

@dataclass
class UpsamplePlan:
    """Class partition used for minority up-sampling, with its merge trace."""

    class_indices: list            # list of index arrays, one per class
    merge_trace: list              # class-size tuples after each merge

    @property
    def class_sizes(self) -> tuple:
        return tuple(len(ix) for ix in self.class_indices)


def upsample_plan(y: np.ndarray, num_classes: int, min_count: int
                  ) -> UpsamplePlan:
    """Bin targets into equal ranges and merge small classes.

    The two smallest classes merge repeatedly until every class except
    the single smallest holds at least ``min_count`` members.
    """
    y = np.asarray(y, dtype=float)
    if len(y) == 0:
        raise ValueError("empty dataset")
    if num_classes < 1:
        raise ValueError("need at least one class")
    lo, hi = y.min(), y.max()
    if hi - lo < 1e-12 or num_classes == 1:
        classes = [np.arange(len(y))]
        return UpsamplePlan(class_indices=classes,
                            merge_trace=[tuple(len(c) for c in classes)])
    width = (hi - lo) / num_classes
    bins = np.minimum(((y - lo) / width).astype(int), num_classes - 1)
    classes = [np.flatnonzero(bins == b) for b in range(num_classes)]
    classes = [c for c in classes if len(c)]
    trace = [tuple(len(c) for c in classes)]
    while len(classes) > 1:
        sizes = np.array([len(c) for c in classes])
        order = np.argsort(sizes, kind="stable")
        rest = sizes[order[1:]]
        if (rest >= min_count).all():
            break
        a, b = order[0], order[1]
        merged = np.sort(np.concatenate([classes[a], classes[b]]))
        classes = [c for i, c in enumerate(classes) if i not in (a, b)]
        classes.append(merged)
        trace.append(tuple(len(c) for c in classes))
    return UpsamplePlan(class_indices=classes, merge_trace=trace)


def upsample_values(data, num_classes: int, min_count: int,
                    rng: np.random.Generator):
    """Up-sample minority value classes to the majority class size.

    ``data`` is a sequence of (input, scalar target) pairs; the output
    keeps every original record, adds resampled duplicates, and is
    shuffled with ``rng``.
    """
    data = list(data)
    y = np.array([float(t) for _, t in data])
    plan = upsample_plan(y, num_classes, min_count)
    target = max(plan.class_sizes)
    chosen = []
    for idx in plan.class_indices:
        chosen.append(idx)
        if len(idx) < target:
            extra = rng.choice(idx, size=target - len(idx), replace=True)
            chosen.append(extra)
    order = np.concatenate(chosen)
    rng.shuffle(order)
    return [data[i] for i in order]


# -- replay buffer ---------------------------------------------------------

@dataclass
class ReplayEntry:
    observations: list             # per-player observation vectors
    value: float
    policy: np.ndarray
    timestep: int
    player: int
    visit_count: int

    def __post_init__(self):
        total = float(np.sum(self.policy))
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"policy sums to {total}, not 1")


class ReplayBuffer:
    def __init__(self):
        self.entries: list[ReplayEntry] = []
        self._by_timestep: dict[int, list[int]] = {}

    def __len__(self):
        return len(self.entries)

    def add(self, entry: ReplayEntry):
        self._by_timestep.setdefault(entry.timestep, []).append(
            len(self.entries))
        self.entries.append(entry)


def replay_sample(buffer: ReplayBuffer, batch_size: int,
                  rng: np.random.Generator) -> list[ReplayEntry]:
    """Two-stage draw with replacement: a uniform occupied timestep,
    then a uniform entry within that timestep."""
    if len(buffer) == 0:
        raise ValueError("empty replay buffer")
    timesteps = sorted(buffer._by_timestep)
    out = []
    for _ in range(batch_size):
        t = timesteps[rng.integers(len(timesteps))]
        bucket = buffer._by_timestep[t]
        out.append(buffer.entries[bucket[rng.integers(len(bucket))]])
    return out


def export_replay_tsv(path: str, entries):
    """Newline-delimited export: timestep, player, visit_count, value,
    policy (comma-joined), observation (comma-joined), tab-separated."""
    lines = []
    for e in entries:
        policy = ",".join(f"{x:.9g}" for x in e.policy)
        obs = ",".join(f"{x:.9g}" for x in e.observations[e.player])
        lines.append(f"{e.timestep}\t{e.player}\t{e.visit_count}\t"
                     f"{e.value:.9g}\t{policy}\t{obs}\n")
    write_atomic(path, "".join(lines))


# -- edge datasets for value-model fitting ---------------------------------

@dataclass
class QRecord:
    state: GameState
    joint: tuple
    value: np.ndarray              # per-player target for the child


def build_q_dataset(tree: GameTree, h: int, child_values: dict
                    ) -> list[QRecord]:
    """One record per (layer-h parent, action, layer-h+1 child) edge.

    ``child_values`` maps child state keys to per-player value vectors
    and must cover every child; parents are already deduplicated by
    state so (state, action) keys are unique.
    """
    records = []
    for node in tree.layer_of(h):
        for joint, child in node.children.items():
            key = child.state.key()
            if key not in child_values:
                raise KeyError(f"missing value for child state {key}")
            records.append(QRecord(state=node.state, joint=joint,
                                   value=np.asarray(child_values[key],
                                                    dtype=float)))
    return records
