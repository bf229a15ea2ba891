"""Simultaneous-move Monte Carlo tree search baseline.

Training alternates tree building with model fitting: rollout trees are
built by the same descent used for equilibrium training, node values
are backed up bottom-up as visit-weighted means grounded in normalized
terminal returns, and value/policy networks are fit on replay batches
drawn uniformly per timestep. At evaluation time the agent can either
run a fresh per-move search or play its distilled policy directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .approx import SupportCodec, ValueModel, stack_by_shape
from .bandit import cdf_rows, draw_rows, legal_policy, sample_index
from .config import Config
from .data import (GameTree, ReplayBuffer, ReplayEntry, TreeNode,
                   UniformPolicySource, generate_tree, replay_sample)
from .games import game_from_id
from .games.base import Game, GameState
from .trainer import (TrainConfig, TrainedAgent, fill_shared,
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


def visit_policy(game: Game, node, player: int) -> np.ndarray:
    """Per-player marginal of child visit counts, uniform-legal fallback."""
    counts = np.zeros(game.spec.action_counts[player])
    for joint, child in node.children.items():
        counts[joint[player]] += child.visit_count
    return legal_policy(counts, game.legal_actions(node.state, player))


def tree_to_replay(game: Game, tree: GameTree, buffer: ReplayBuffer):
    """One replay entry per (non-terminal node, player)."""
    for h in range(game.horizon):
        for node in tree.layer_of(h):
            obs = [game.observe(node.state, p)
                   for p in range(game.num_players)]
            for p in range(game.num_players):
                buffer.add(ReplayEntry(
                    observations=obs,
                    value=float(np.asarray(node.value)[p]),
                    policy=visit_policy(game, node, p),
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
        obs = [[game.observe(s, p) for p in range(game.num_players)]
               for s in states]
        return (self.agent.observed_value(obs),
                self.agent.policies(states, obs))


@dataclass
class _LastSearch:
    """An agent's last search, served again only to a player it has not
    served yet, on the same state object and drawing from the same
    generator: every match has its own generator, so no match or replay
    reuses a search made in another."""
    state: GameState
    rng: np.random.Generator
    policies: list
    served: set = field(default_factory=set)


class SmctsAgent(TrainedAgent):
    """Search-at-play or distilled-policy agent over the fitted models.

    With ``search_play`` the agent searches each state once and serves
    every player it controls on that state from the one search's root
    policies, drawing one action per player; otherwise it plays its
    policy networks as a TrainedAgent does.
    """

    def __init__(self, game: Game, value_models: dict, policy_models: list,
                 share_mode: str, eval_simulations: int = 100,
                 search_play: bool = True, name: str = "smcts"):
        # value_models: player -> ValueModel over the state alone
        super().__init__(game, policy_models, value_models, name=name)
        self.share_mode = share_mode
        self.eval_simulations = eval_simulations
        self.search_play = search_play
        self._last_search: _LastSearch | None = None

    @functools.cached_property
    def _value_stacks(self) -> list:
        players = value_players(self.share_mode, self.game.num_players)
        models = [self.value_models[p] for p in players]
        if len({m.codec for m in models}) > 1:
            raise ValueError("an agent's value networks share one codec")
        return [([players[i] for i in ix], stack, models[0].codec.centers)
                for ix, stack in stack_by_shape([m.net for m in models])]

    def state_value(self, state: GameState) -> np.ndarray:
        obs = [self.game.observe(state, p)
               for p in range(self.game.num_players)]
        return self.observed_value([obs])[0]

    def observed_value(self, obs: list) -> np.ndarray:
        """Per-player values ``(k, N)`` of the states that player ``p``
        observes as ``obs[i][p]``, from one stacked pass per
        value-network shape; players without a network are filled by the
        share mode. Each expectation is a single-row product,
        ``(1, bins) @ centers``, as for one state alone."""
        out = np.full((len(obs), self.game.num_players), 0.5)
        for players, stack, centers in self._value_stacks:
            support = stack.forward([[o[p] for o in obs] for p in players])
            out[:, players] = (support[..., None, :] @ centers)[..., 0].T
        return fill_shared(out, self.share_mode)

    def act(self, game: Game, state: GameState, player: int,
            rng: np.random.Generator) -> int:
        if not self.search_play:
            return super().act(game, state, player, rng)
        last = self._last_search
        if (last is None or last.state is not state or last.rng is not rng
                or player in last.served):
            _, policies = smcts_search(game, state, SmctsSource(self),
                                       self.eval_simulations, rng)
            last = self._last_search = _LastSearch(state, rng, policies)
        last.served.add(player)
        return sample_index(last.policies[player], rng)


def smcts_search(game: Game, state: GameState, source, simulations: int,
                 rng: np.random.Generator) -> tuple:
    """Per-move search; returns (root value estimate, per-player policies).

    Search nodes are rollout-tree nodes (:class:`~equilearn.data.TreeNode`)
    that start at zero visits; each keeps the source's legal policies as
    per-player CDF rows. Each simulation descends from the root drawing
    one joint action per step with :func:`bandit.draw_rows` from
    ``rng.random((N, 1))``, the same doubles as N scalar draws in player
    order; it expands one new edge (or stops at a terminal), and backs
    the leaf value up the path as a running mean. Terminal leaves ground
    the scale through a per-player sigmoid of accumulated returns;
    interior leaves keep the source's value estimate. Root policies are
    the marginal child-visit distributions (:func:`visit_policy`).

    A new non-terminal node is pending until a descent steps onto it or
    the last simulation ends; then every pending node is predicted in
    one ``source.predict`` call. Descent reads only CDF rows, so it makes
    the same draws as it would with each node predicted when it is
    made. The backups are replayed in simulation order after the last
    prediction, so every node takes the same float operations: a new
    leaf is first visited by its own simulation.
    """
    if simulations < 1:
        raise ValueError("need at least one simulation")
    n = game.num_players
    pending = []

    def make_node(s):
        if s.terminal:
            return TreeNode(state=s, value=_sigmoid(game.terminal_returns(s)),
                            cdf=None, visit_count=0)
        node = TreeNode(state=s, value=None, cdf=None, visit_count=0)
        pending.append(node)
        return node

    def flush():
        values, policies = source.predict(game,
                                          [node.state for node in pending])
        for node, value, cdf in zip(pending, values, cdf_rows(policies)):
            node.value = value
            node.cdf = cdf
        pending.clear()

    root = make_node(state)
    paths = []
    for _ in range(simulations):
        node = root
        path = [root]
        while not node.state.terminal:
            if node.cdf is None:
                flush()
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
    if pending:
        flush()
    for path in paths:
        leaf_value = path[-1].value
        for node in path:
            node.visit_count += 1
            node.value = (node.value
                          + (leaf_value - node.value) / node.visit_count)
    return root.value, [visit_policy(game, root, p) for p in range(n)]


def smcts_train(cfg: Config, game: Game | None = None) -> SmctsAgent:
    """Fit search-guided value and policy networks under the same
    validation gate as equilibrium training."""
    tc = TrainConfig.from_config(cfg)
    if game is None:
        game = game_from_id(tc.game_id)
    rng = np.random.default_rng(tc.seed)
    share = share_mode_for(game)
    players = value_players(share, game.num_players)
    codec = SupportCodec(num_bins=tc.support_bins, lo=0.0, hi=1.0)

    def make_candidate(it: int, accepted: SmctsAgent | None):
        source = (UniformPolicySource() if accepted is None
                  else SmctsSource(accepted))
        tree = generate_tree(game, source, tc.smcts_simulations,
                             randomize=tc.randomize_prob, rng=rng)
        backup_tree_values(game, tree)
        buffer = ReplayBuffer()
        tree_to_replay(game, tree, buffer)

        value_models = {p: ValueModel(
            obs_size=game.observation_size, codec=codec,
            trunk_hidden=(tc.q_hidden, tc.q_hidden), rep_size=tc.q_rep,
            head_hidden=(tc.q_hidden, tc.q_hidden),
            dropout_rate=tc.q_dropout, l2_coeff=tc.q_l2,
            learning_rate=tc.learning_rate,
            seed=tc.seed + 7919 * it + p) for p in players}
        policy_models = new_policy_models(game, tc, it)

        v_losses, p_losses = [], []
        for _ in range(tc.smcts_batches):
            batch = replay_sample(buffer, tc.batch_size, rng)
            for p in players:
                sub = [e for e in batch if e.player == p]
                if not sub:
                    continue
                obs = np.stack([e.observations[p] for e in sub])
                vals = np.array([e.value for e in sub])
                v_losses.append(value_models[p].fit(obs, vals, 1,
                                                    tc.batch_size, rng))
            for p in range(game.num_players):
                sub = [e for e in batch if e.player == p]
                if not sub:
                    continue
                obs = np.stack([e.observations[p] for e in sub])
                pols = np.stack([e.policy for e in sub])
                p_losses.append(policy_models[p].fit(obs, pols, 1,
                                                     tc.batch_size, rng))

        candidate = SmctsAgent(game, value_models, policy_models, share,
                               eval_simulations=tc.eval_simulations,
                               search_play=tc.search_play)
        return candidate, [{
            "iteration": it, "replay_size": len(buffer),
            "value_loss": float(np.mean(v_losses)) if v_losses else None,
            "policy_loss": float(np.mean(p_losses)) if p_losses else None,
        }]

    return gated_training(game, tc.smcts_iterations, tc.patience,
                          tc.gate_matches, tc.seed + 700_000, make_candidate)
