"""Backward per-timestep equilibrium training.

Each outer iteration: collect candidate game trees with partially
random rollouts and keep the one with the highest value spread; walk
the tree's layers from the horizon back to the root, at every layer
fitting a value model on (state, joint action) -> child-value edges and
then solving every state's stage game with simultaneous EXP-IX; distill
the stage policies into per-player policy networks; accept or roll back
against a random-opponent validation score.
"""

from __future__ import annotations

import copy
import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import harness
from .approx import (PolicyModel, QValueModel, SupportCodec, fit_tabular,
                     joint_actions, stack_by_shape)
from .bandit import legal_rows_by_count, sample_index
from .cce import (ma_exp_ix_batch, normalize_losses, prune_dominated,
                  verify_cce)
from .config import Config
from .data import (GameTree, UniformPolicySource, build_q_dataset,
                   generate_tree, select_tree_by_cv, upsample_values)
from .games import game_from_id
from .games.base import Game, GameState, legal_masks

log = logging.getLogger("equilearn.trainer")


def share_mode_for(game: Game) -> str:
    """How one value network stands for every player: 'zero_sum' (two
    players whose values sum to 1), 'identical' (every player gets the
    same value) or 'none' (one network per player)."""
    if game.reward_symmetry == "zero_sum" and game.num_players == 2:
        return "zero_sum"
    if game.reward_symmetry == "identical":
        return "identical"
    return "none"


def value_players(share_mode: str, n: int) -> list[int]:
    """The players that own a value network under ``share_mode``."""
    return [0] if share_mode != "none" else list(range(n))


def checked_share_mode(game: Game, models: dict) -> str:
    """The game's share mode, after checking that ``models`` (player ->
    value network) holds exactly the players that own a network under
    it; every holder of value networks is built through this check."""
    share = share_mode_for(game)
    expected = value_players(share, game.num_players)
    if sorted(models) != expected:
        raise ValueError(f"value networks for players {sorted(models)}, "
                         f"expected {expected} (share mode {share!r})")
    return share


def fill_shared(values: np.ndarray, share_mode: str) -> np.ndarray:
    """Fill the other players' entries on the last axis from player 0's,
    in place; returns ``values``."""
    if share_mode == "zero_sum":
        values[..., 1] = 1.0 - values[..., 0]
    elif share_mode == "identical":
        values[..., 1:] = values[..., :1]
    return values


class TabularValueSource:
    """Per-player values of every joint action of layer states, looked
    up in a table fitted on the layer's edges (``fit_tabular``); a joint
    action missing from the table is worth 0.5 to every player."""

    def __init__(self, table: dict):
        self.table = table             # (state key, joint) -> value

    def joint_values(self, game, states):
        """Values in [0, 1], shape (len(states), prod(A), N)."""
        joints = joint_actions(game.spec.action_counts).tolist()
        n = game.num_players
        out = np.empty((len(states), len(joints), n))
        for si, s in enumerate(states):
            key = s.key()
            for ji, j in enumerate(joints):
                v = self.table.get((key, tuple(j)), 0.5)
                out[si, ji] = v if np.ndim(v) else np.full(n, float(v))
        return out


class MlpValueSource:
    """Per-player values of every joint action of layer states, from
    per-player value networks, or one shared network whose output maps
    to the other players by the game's reward symmetry. Each network
    values a batch of states in one :meth:`QValueModel.joint_values`
    call: one trunk pass per state, whatever the number of joint
    actions, the head in blocks of whole states of bounded size, and a
    state's values are the same bits in any batch."""

    def __init__(self, game: Game, models: dict):
        self.share_mode = checked_share_mode(game, models)
        self.models = models           # player index -> QValueModel

    def joint_values(self, game, states):
        """Values in [0, 1], shape (len(states), prod(A), N)."""
        joints = joint_actions(game.spec.action_counts)
        out = np.empty((len(states), len(joints), game.num_players))
        for p, model in self.models.items():
            obs = np.stack([game.observe(s, p) for s in states])
            out[:, :, p] = model.joint_values(obs, joints)
        return fill_shared(out, self.share_mode)


# most (state, joint action) pairs a layer's value table may hold
TABULAR_CAP = 100000


def fit_layer_values(game: Game, records: list, cfg: Config, h: int,
                     iteration: int, rng: np.random.Generator):
    """Fit the per-layer value backend on edge records.

    Returns (value source, mean fit loss); the source is what the layer
    keeps for stage games, tree rollouts and checkpoints.
    """
    if not records:
        raise ValueError(f"no edge records at layer {h}")
    if cfg["train.value_backend"] == "tabular":
        table = fit_tabular([(r.state.key(), r.joint, r.value)
                             for r in records])
        if len(table) > TABULAR_CAP:
            raise ValueError(f"tabular backend over cap: "
                             f"{len(table)} > {TABULAR_CAP}")
        return TabularValueSource(table), 0.0

    codec = SupportCodec()
    hidden = (cfg["net.q_hidden"],) * 2
    models = {}
    losses = []
    for p in value_players(share_mode_for(game), game.num_players):
        data = [((game.observe(r.state, p), r.joint), float(r.value[p]))
                for r in records]
        # ten value classes; those under max(50, n/20) records merge first
        data = upsample_values(data, 10, max(50, len(data) // 20), rng)
        model = QValueModel(
            obs_size=game.observation_size,
            action_counts=game.spec.action_counts, codec=codec,
            trunk_hidden=hidden, rep_size=cfg["net.q_rep"],
            head_hidden=hidden, dropout_rate=cfg["net.q_dropout"],
            learning_rate=cfg["net.learning_rate"],
            seed=cfg["seed"] + 7919 * iteration + 101 * h + p)
        obs = np.stack([d[0][0] for d in data])
        joints = [d[0][1] for d in data]
        values = np.array([d[1] for d in data])
        losses.append(model.fit(obs, joints, values, cfg["net.q_epochs"],
                                cfg["net.batch_size"], rng))
        models[p] = model
    return MlpValueSource(game, models), float(np.mean(losses))


@dataclass
class LayerResult:
    values: dict                   # state key -> per-player value vector
    source: object                 # the layer's fitted value source
    fit_loss: float
    policy_records: list           # (player, observation, policy) triples
    mean_epsilon: float            # over every state of the layer
    p95_epsilon: float
    max_epsilon: float


def process_layer(game: Game, tree: GameTree, h: int, child_values: dict,
                  cfg: Config, iteration: int, rng: np.random.Generator
                  ) -> LayerResult:
    """Fit the layer's value model, then stage-solve every layer state.

    ``child_values`` maps layer h+1 state keys to per-player values in
    [0, 1] (terminal normalized returns when h+1 is the horizon). The
    value model is fit before solving so stage losses are its
    predictions, as the tabular/mlp backend dictates. The layer's stage
    games are pruned, solved and verified as one batch.
    """
    nodes = tree.layer_of(h)
    if not nodes:
        raise ValueError(f"empty layer {h}")
    records = build_q_dataset(tree, h, child_values)
    source, fit_loss = fit_layer_values(game, records, cfg, h, iteration,
                                        rng)

    counts = game.spec.action_counts
    n = game.num_players
    states = [node.state for node in nodes]
    legal = legal_masks(game, states)
    values = source.joint_values(game, states)       # (B, J, N)
    tensors = np.clip(1.0 - values.reshape((len(nodes), *counts, n)),
                      0.0, 1.0)
    masks = prune_dominated(tensors, legal)
    batch = ma_exp_ix_batch(tensors, cfg["cce.rounds"], masks=masks,
                            rng=rng)
    dists = batch.joint_counts.reshape(tensors.shape[:-1]) / batch.rounds
    eps = verify_cce(tensors, dists, legal)

    values_out = {}
    policy_records = []
    for bi, state in enumerate(states):
        values_out[state.key()] = batch.values[bi]
        for p in range(n):
            policy_records.append((p, game.observe(state, p),
                                   batch.policies[bi, p, :counts[p]]))
    return LayerResult(values=values_out, source=source, fit_loss=fit_loss,
                       policy_records=policy_records,
                       mean_epsilon=float(eps.mean()),
                       p95_epsilon=float(np.percentile(eps, 95)),
                       max_epsilon=float(eps.max()))


class TrainedAgent:
    """Per-player policy networks plus the last iteration's per-layer
    value sources (``value_models``: layer h -> value source; a search
    agent has none, and keeps its networks in ``state_value_models``).

    The networks are not fitted after the agent is built: the stacked
    passes (``policies``, and a search agent's ``observed_value``) read
    copies of them taken at first use.
    """

    def __init__(self, game: Game, policy_models: list, value_models: dict,
                 name: str = "nncce"):
        self.game = game
        self.policy_models = policy_models
        self.value_models = value_models       # layer h -> value source
        self.name = name
        self.training_log: list = []
        self.gate_score: float | None = None
        self._stacks_by_players: dict = {}     # player tuple -> stacks
        # (state, rng, rows, covered players not served yet)
        self._served: tuple | None = None

    def policy(self, state: GameState, player: int) -> np.ndarray:
        obs = {player: [self.game.observe(state, player)]}
        return self.policies([state], obs)[
            0, player, :self.game.spec.action_counts[player]]

    def _stacks(self, players: tuple) -> list:
        """``stack_by_shape`` of ``players``' policy networks (indices
        into ``players``), built at first use for each player tuple."""
        stacks = self._stacks_by_players.get(players)
        if stacks is None:
            stacks = self._stacks_by_players[players] = stack_by_shape(
                [self.policy_models[p].net for p in players])
        return stacks

    def policies(self, states: list, obs: dict) -> np.ndarray:
        """Legal policies for each of ``states`` of the players that
        ``obs`` maps, each to its observations of ``states`` (``obs[p][i]``
        is player ``p``'s of ``states[i]``), from one stacked pass per
        policy-network shape and one :func:`legal_rows_by_count` call.
        Returns ``(k, N, A_max)`` rows, zero past each player's action
        count and for every player ``obs`` does not map."""
        players = tuple(obs)
        counts = self.game.spec.action_counts
        masks = legal_masks(self.game, states)
        weights = np.zeros((len(states), len(players), masks.shape[-1]))
        for ix, stack in self._stacks(players):
            out = stack.forward([obs[players[i]] for i in ix])
            weights[:, ix, :out.shape[-1]] = out.transpose(1, 0, 2)
        rows = np.zeros(masks.shape)
        rows[:, players] = legal_rows_by_count(
            weights, masks[:, players], [counts[p] for p in players])
        return rows

    def play_rows(self, game: Game, state: GameState, player: int,
                  rng: np.random.Generator) -> tuple:
        """The ``(N, A_max)`` rows that :meth:`act` draws from on
        ``state`` when asked for ``player``, and the players they serve:
        here the legal policies of ``player``'s side (``game.teams``),
        the other rows zero; a search agent searches and serves every
        player."""
        side = next(team for team in game.teams if player in team)
        obs = {p: [game.observe(state, p)] for p in side}
        return self.policies([state], obs)[0], side

    def act(self, game: Game, state: GameState, player: int,
            rng: np.random.Generator) -> int:
        """Draw ``player``'s action from :meth:`play_rows` on ``state``.

        One computation of rows serves each player it covers once: the
        rows are served again only to a covered player not served yet,
        on the same state object and drawing from the same generator.
        Every match has its own generator, so no match or replay reuses
        rows made in another.
        """
        served = self._served
        if (served is None or served[0] is not state or served[1] is not rng
                or player not in served[3]):
            rows, players = self.play_rows(game, state, player, rng)
            served = self._served = (state, rng, rows, set(players))
        served[3].remove(player)
        return sample_index(served[2][player], rng)


class AgentPolicySource:
    """Tree-rollout predictions from a trained agent: its legal
    policies (:meth:`TrainedAgent.policies`), and node values as the
    policy-weighted mean of the layer value source's joint values."""

    def __init__(self, agent: TrainedAgent):
        self.agent = agent

    def predict(self, game: Game, states: list) -> tuple:
        """Values ``(k, N)`` and per-player legal policies ``(k, N,
        A_max)`` of the non-terminal ``states``.

        Each timestep's states are valued in one ``joint_values`` call
        and weighted by one ``(1, J) @ (J, N)`` product per state, so a
        state gets the same bits in any batch.
        """
        n = game.num_players
        counts = game.spec.action_counts
        obs = {p: [game.observe(s, p) for s in states] for p in range(n)}
        weights = self.agent.policies(states, obs)
        # joint probabilities in the C order of joint_actions
        probs = functools.reduce(
            lambda x, y: (x[:, :, None] * y[:, None, :]).reshape(len(x), -1),
            [weights[:, p, :a] for p, a in enumerate(counts)])
        probs = probs / np.add.reduce(probs, axis=1, keepdims=True)
        values = np.full((len(states), n), 0.5)
        by_timestep: dict = {}
        for i, state in enumerate(states):
            by_timestep.setdefault(state.timestep, []).append(i)
        for h, rows in by_timestep.items():
            source = self.agent.value_models.get(h)
            if source is not None:
                vals = source.joint_values(game, [states[i] for i in rows])
                values[rows] = (probs[rows, None, :] @ vals)[:, 0]
        return values, weights


def deepest_layer(tree: GameTree) -> int:
    """Index of the deepest nonempty layer; >= 1 for any generated tree."""
    for h in range(len(tree.layers) - 1, -1, -1):
        if tree.layers[h]:
            return h
    raise ValueError("empty tree")


def grounding_layer(tree: GameTree, min_nodes: int = 25,
                    thin_frac: float = 0.1) -> int:
    """Deepest layer with enough coverage to ground the backward pass.

    Thin frontier slivers (fewer than ``min_nodes`` nodes and under
    ``thin_frac`` of the layer above) are trimmed away: value targets
    normalized over a handful of barely explored states are noise, and
    every discarded layer is tiny by construction. Exhaustively built
    small trees keep their true terminal layer because it is never thin
    relative to its parent layer.
    """
    h = deepest_layer(tree)
    while h > 1:
        size = len(tree.layers[h])
        if size >= min_nodes or size >= thin_frac * len(tree.layers[h - 1]):
            break
        h -= 1
    return h


def frontier_values(game: Game, tree: GameTree, layer: int) -> dict:
    """Grounding values for the backward pass at ``layer``.

    Per player, accumulated returns over the layer's nodes are min-max
    normalized so the best return maps to value 1. At the horizon these
    are exact terminal returns; for partially built trees whose deepest
    layer falls short of the horizon they are the scores collected so
    far.
    """
    nodes = tree.layer_of(layer)
    if not nodes:
        raise ValueError(f"layer {layer} is empty")
    returns = np.stack([game.accumulated_returns(n.state) for n in nodes])
    losses = normalize_losses(returns)
    return {n.state.key(): 1.0 - losses[i] for i, n in enumerate(nodes)}


@dataclass
class GateDecision:
    score: float
    accepted: bool
    improved: bool


def validation_gate(candidate: TrainedAgent, previous_score: float | None,
                    game: Game, n_matches: int, seed: int) -> GateDecision:
    """Score the candidate against the uniform-random agent.

    Accept unless it scores strictly worse than the last accepted
    score; ties accept (rollback on ties can livelock with a stochastic
    evaluator). ``improved`` drives the patience counter.
    """
    if n_matches < 1:
        raise ValueError("need at least one validation match")
    score = harness.evaluate_vs_random(game, candidate,
                                       n_pairs=max(1, n_matches // 2),
                                       base_seed=seed)
    if previous_score is None:
        return GateDecision(score=score, accepted=True, improved=True)
    return GateDecision(score=score, accepted=score >= previous_score,
                        improved=score > previous_score)


def new_policy_models(game: Game, cfg: Config, iteration: int):
    """Fresh per-player policy networks for an iteration's candidate."""
    hidden = (cfg["net.policy_hidden"],) * 2
    return [PolicyModel(obs_size=game.observation_size,
                        num_actions=game.spec.action_counts[p],
                        trunk_hidden=hidden, rep_size=cfg["net.policy_rep"],
                        head_hidden=hidden,
                        dropout_rate=cfg["net.policy_dropout"],
                        learning_rate=cfg["net.learning_rate"],
                        seed=cfg["seed"] + 1009 * iteration + p)
            for p in range(game.num_players)]


def gated_training(game: Game, iterations: int, patience: int,
                   gate_matches: int, gate_seed: int, make_candidate):
    """The accept/rollback outer loop; returns the last accepted agent
    with the run's training log and its gate score.

    ``make_candidate(it, accepted)`` builds iteration ``it``'s candidate
    from the last accepted agent (None until one is accepted) and
    returns it with the iteration's log rows, the last of which is the
    gate row: the loop adds its ``gate`` entry. Iteration ``it`` is
    gated with seed ``gate_seed + it``, and the loop stops after
    ``patience`` consecutive iterations that do not improve the score.
    """
    accepted: TrainedAgent | None = None
    accepted_score: float | None = None
    training_log: list = []
    stale = 0
    for it in range(iterations):
        candidate, rows = make_candidate(it, accepted)
        decision = validation_gate(candidate, accepted_score, game,
                                   gate_matches, seed=gate_seed + it)
        verdict = "accept" if decision.accepted else "rollback"
        rows[-1]["gate"] = f"{verdict} score={decision.score:.4f}"
        training_log.extend(rows)
        log.info("iter %d gate: score %.4f -> %s", it, decision.score,
                 verdict)
        if decision.accepted:
            accepted = candidate
            accepted_score = decision.score
        stale = 0 if decision.improved else stale + 1
        if stale >= patience:
            log.info("terminating after %d non-improving iterations", stale)
            break

    if accepted is None:
        raise RuntimeError("training produced no accepted agent")
    accepted.training_log = training_log
    accepted.gate_score = accepted_score
    return accepted


def train(cfg: Config, game: Game | None = None) -> TrainedAgent:
    """Run the full outer loop and return the last accepted agent."""
    if game is None:
        game = game_from_id(cfg["game"])
    rng = np.random.default_rng(cfg["seed"])

    def make_candidate(it: int, accepted: TrainedAgent | None):
        if accepted is None:
            source = UniformPolicySource()
        else:
            source = AgentPolicySource(accepted)
        trees = [generate_tree(game, source, cfg["train.trajectories"],
                               randomize=cfg["train.randomize_prob"],
                               rng=rng)
                 for _ in range(cfg["train.cv_trees"])]
        tree = select_tree_by_cv(trees)

        frontier = grounding_layer(tree)
        child_values = frontier_values(game, tree, frontier)
        value_models: dict = {}
        policy_data = [[] for _ in range(game.num_players)]
        rows = []
        for h in range(frontier - 1, -1, -1):
            result = process_layer(game, tree, h, child_values, cfg, it,
                                   rng)
            value_models[h] = result.source
            child_values = result.values
            for p, obs, policy in result.policy_records:
                policy_data[p].append((obs, policy))
            mean_v = float(np.mean([v for v in result.values.values()]))
            rows.append({
                "iteration": it, "layer": h, "mean_stage_value": mean_v,
                "mean_epsilon": result.mean_epsilon,
                "p95_epsilon": result.p95_epsilon,
                "max_epsilon": result.max_epsilon,
                "regression_loss": result.fit_loss,
                "policy_loss": None, "gate": None,
            })
            log.info("iter %d layer %d: %d states, mean value %.4f",
                     it, h, len(result.values), mean_v)

        if accepted is not None:
            # warm start; deep copy so a rolled-back candidate can't
            # corrupt the accepted agent's parameters
            policy_models = copy.deepcopy(accepted.policy_models)
        else:
            policy_models = new_policy_models(game, cfg, it)
        policy_losses = []
        for p in range(game.num_players):
            obs = np.stack([o for o, _ in policy_data[p]])
            targets = np.stack([t for _, t in policy_data[p]])
            policy_losses.append(policy_models[p].fit(
                obs, targets, cfg["net.policy_epochs"],
                cfg["net.batch_size"], rng))
        rows.append({
            "iteration": it, "layer": None, "mean_stage_value": None,
            "mean_epsilon": None, "p95_epsilon": None, "max_epsilon": None,
            "regression_loss": None,
            "policy_loss": float(np.mean(policy_losses)),
        })
        return TrainedAgent(game, policy_models, value_models), rows

    return gated_training(game, cfg["train.outer_iters"],
                          cfg["train.patience"], cfg["train.gate_matches"],
                          cfg["seed"] + 500_000, make_candidate)
