"""Simultaneous-move Monte Carlo tree search baseline.

Training alternates tree building with model fitting: rollout trees are
built by the same descent used for equilibrium training, node values
are backed up bottom-up as visit-weighted means grounded in normalized
terminal returns, and value/policy networks are fit on replay batches
drawn uniformly per timestep. At evaluation time the agent runs a
fresh per-move search; its distilled policy networks alone are played
by loading its checkpoint as a ``TrainedAgent``.
"""

from __future__ import annotations

import functools

import numpy as np

from .approx import SupportCodec, ValueModel, stack_by_shape
from .bandit import draw_rows, legal_rows_by_count
from .config import Config
from .data import (GameTree, PendingNodes, ReplayBuffer, ReplayEntry,
                   TreeNode, UniformPolicySource, generate_tree,
                   replay_sample)
from .games import game_from_id
from .games.base import Game, GameState, legal_masks
from .trainer import (TrainedAgent, checked_share_mode, fill_shared,
                      frontier_values, gated_training, grounding_layer,
                      new_policy_models, share_mode_for, value_players)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def backup_tree_values(game: Game, tree: GameTree):
    """Replace node values bottom-up with visit-weighted child means.

    Grounding-layer nodes take the backward pass's frontier values
    (``trainer.frontier_values``), so backed-up values share the [0, 1]
    scale of the model estimates interior leaves keep.
    """
    frontier = grounding_layer(tree)
    grounded = frontier_values(game, tree, frontier)
    for node in tree.layer_of(frontier):
        node.value = grounded[node.state.key()]
    for h in range(frontier - 1, -1, -1):
        for node in tree.layer_of(h):
            if not node.children:
                continue   # leaf: keeps its model estimate
            kids = list(node.children.values())
            w = np.array([k.visit_count for k in kids], dtype=float)
            vals = np.stack([np.asarray(k.value, dtype=float) for k in kids])
            node.value = (vals * (w / w.sum())[:, None]).sum(axis=0)


def visit_policies(game: Game, node) -> np.ndarray:
    """Each player's marginal of child visit counts, ``(N, A_max)`` and
    zero past its action count; uniform over the legal actions for a
    player with no visited child."""
    counts = [[0] * max(game.spec.action_counts)
              for _ in range(game.num_players)]
    for joint, child in node.children.items():
        for p, a in enumerate(joint):
            counts[p][a] += child.visit_count
    return legal_rows_by_count(np.array([counts], dtype=float),
                               legal_masks(game, [node.state]),
                               game.spec.action_counts)[0]


def tree_to_replay(game: Game, tree: GameTree, buffer: ReplayBuffer):
    """One replay entry per (non-terminal node, player)."""
    counts = game.spec.action_counts
    for h in range(game.horizon):
        for node in tree.layer_of(h):
            obs = [game.observe(node.state, p)
                   for p in range(game.num_players)]
            policies = visit_policies(game, node)
            for p in range(game.num_players):
                buffer.add(ReplayEntry(
                    observations=obs,
                    value=float(np.asarray(node.value)[p]),
                    policy=policies[p, :counts[p]],
                    timestep=h, player=p,
                    visit_count=node.visit_count))


class SmctsSource:
    """Rollout predictions from the fitted value/policy networks."""

    def __init__(self, agent: "SmctsAgent"):
        self.agent = agent

    def predict(self, game: Game, states: list) -> tuple:
        """Values ``(k, N)`` and per-player legal policies ``(k, N,
        A_max)`` of the non-terminal ``states``, from one stacked policy
        pass and one stacked value pass."""
        obs = {p: [game.observe(s, p) for s in states]
               for p in range(game.num_players)}
        return (self.agent.observed_value(obs),
                self.agent.policies(states, obs))


class SmctsAgent(TrainedAgent):
    """Search-at-play agent over the fitted models: its play rows are a
    per-move search's root policies, so under ``TrainedAgent.act`` it
    searches each state once and serves every player it controls on
    that state from the one search. Its policy networks alone are
    played by loading its checkpoint as a ``TrainedAgent``
    (``policy:<dir>``).
    """

    def __init__(self, game: Game, state_value_models: dict,
                 policy_models: list, eval_simulations: int = 100,
                 name: str = "smcts"):
        self.share_mode = checked_share_mode(game, state_value_models)
        if len({m.codec for m in state_value_models.values()}) > 1:
            raise ValueError("an agent's value networks share one codec")
        # player -> ValueModel over the state alone
        self.state_value_models = state_value_models
        super().__init__(game, policy_models, {}, name=name)
        self.eval_simulations = eval_simulations

    @functools.cached_property
    def _value_stacks(self) -> list:
        players = value_players(self.share_mode, self.game.num_players)
        models = [self.state_value_models[p] for p in players]
        return [([players[i] for i in ix], stack, models[0].codec.centers)
                for ix, stack in stack_by_shape([m.net for m in models])]

    def observed_value(self, obs: dict) -> np.ndarray:
        """Per-player values ``(k, N)`` of the k states that player ``p``
        observes as ``obs[p]``, from one stacked pass per value-network
        shape; players without a network are filled by the share mode.
        Each expectation is a single-row product, ``(1, bins) @
        centers``, as for one state alone."""
        out = np.full((len(obs[0]), self.game.num_players), 0.5)
        for players, stack, centers in self._value_stacks:
            support = stack.forward([obs[p] for p in players])
            out[:, players] = (support[..., None, :] @ centers)[..., 0].T
        return fill_shared(out, self.share_mode)

    def play_rows(self, game: Game, state: GameState, player: int,
                  rng: np.random.Generator) -> tuple:
        return (smcts_search(game, state, SmctsSource(self),
                             self.eval_simulations, rng)[1],
                range(game.num_players))


def smcts_search(game: Game, state: GameState, source, simulations: int,
                 rng: np.random.Generator) -> tuple:
    """Per-move search; returns the root value estimate and the root's
    per-player policies ``(N, A_max)``.

    Search nodes are rollout-tree nodes (:class:`~equilearn.data.TreeNode`)
    that start at zero visits; each keeps the source's legal policies as
    per-player CDF rows. Each simulation descends from the root drawing
    one joint action per step with :func:`bandit.draw_rows` from
    ``rng.random((N, 1))``, the same doubles as N scalar draws in player
    order; it expands one new edge (or stops at a terminal), and backs
    the leaf value up the path as a running mean. Terminal leaves ground
    the scale through a per-player sigmoid of accumulated returns;
    interior leaves keep the source's value estimate. Root policies are
    the marginal child-visit distributions (:func:`visit_policies`).

    A new non-terminal node is pending (:class:`~equilearn.data.PendingNodes`)
    until a descent steps onto it or the last simulation ends. The
    backups are replayed in simulation order after the last prediction,
    so every node takes the same float operations: a new leaf is first
    visited by its own simulation.
    """
    if simulations < 1:
        raise ValueError("need at least one simulation")
    n = game.num_players
    pending = PendingNodes(game, source)

    def make_node(s):
        if s.terminal:
            return TreeNode(state=s, value=_sigmoid(game.terminal_returns(s)),
                            cdf=None, visit_count=0)
        return pending.add(TreeNode(state=s, value=None, cdf=None,
                                    visit_count=0))

    root = make_node(state)
    paths = []
    for _ in range(simulations):
        node = root
        path = [root]
        while not node.state.terminal:
            pending.ready(node)
            joint = tuple(draw_rows(node.cdf, rng.random((n, 1))).tolist())
            child = node.children.get(joint)
            if child is None:
                child = make_node(game.step(node.state, joint).next_state)
                node.children[joint] = child
                path.append(child)
                break
            node = child
            path.append(node)
        paths.append(path)
    pending.flush()
    for path in paths:
        leaf_value = path[-1].value
        for node in path:
            node.visit_count += 1
            node.value = (node.value
                          + (leaf_value - node.value) / node.visit_count)
    return root.value, visit_policies(game, root)


def smcts_train(cfg: Config, game: Game | None = None) -> SmctsAgent:
    """Fit search-guided value and policy networks under the same
    validation gate as equilibrium training."""
    if game is None:
        game = game_from_id(cfg["game"])
    rng = np.random.default_rng(cfg["seed"])
    players = value_players(share_mode_for(game), game.num_players)
    codec = SupportCodec()
    hidden = (cfg["net.q_hidden"],) * 2
    batch_size = cfg["net.batch_size"]

    def make_candidate(it: int, accepted: SmctsAgent | None):
        source = (UniformPolicySource() if accepted is None
                  else SmctsSource(accepted))
        tree = generate_tree(game, source, cfg["smcts.simulations"],
                             randomize=cfg["train.randomize_prob"], rng=rng)
        backup_tree_values(game, tree)
        buffer = ReplayBuffer()
        tree_to_replay(game, tree, buffer)

        value_models = {p: ValueModel(
            obs_size=game.observation_size, codec=codec,
            trunk_hidden=hidden, rep_size=cfg["net.q_rep"],
            head_hidden=hidden, dropout_rate=cfg["net.q_dropout"],
            learning_rate=cfg["net.learning_rate"],
            seed=cfg["seed"] + 7919 * it + p) for p in players}
        policy_models = new_policy_models(game, cfg, it)

        v_losses, p_losses = [], []
        for _ in range(cfg["smcts.batches"]):
            batch = replay_sample(buffer, batch_size, rng)
            for p in players:
                sub = [e for e in batch if e.player == p]
                if not sub:
                    continue
                obs = np.stack([e.observations[p] for e in sub])
                vals = np.array([e.value for e in sub])
                v_losses.append(value_models[p].fit(obs, vals, 1,
                                                    batch_size, rng))
            for p in range(game.num_players):
                sub = [e for e in batch if e.player == p]
                if not sub:
                    continue
                obs = np.stack([e.observations[p] for e in sub])
                pols = np.stack([e.policy for e in sub])
                p_losses.append(policy_models[p].fit(obs, pols, 1,
                                                     batch_size, rng))

        candidate = SmctsAgent(
            game, value_models, policy_models,
            eval_simulations=cfg["smcts.eval_simulations"])
        return candidate, [{
            "iteration": it, "replay_size": len(buffer),
            "value_loss": float(np.mean(v_losses)) if v_losses else None,
            "policy_loss": float(np.mean(p_losses)) if p_losses else None,
        }]

    return gated_training(game, cfg["smcts.iterations"],
                          cfg["train.patience"], cfg["train.gate_matches"],
                          cfg["seed"] + 700_000, make_candidate)
