"""Simultaneous-move Monte Carlo tree search baseline.

Training alternates tree building with model fitting: rollout trees are
built by the same descent used for equilibrium training, node values
are backed up bottom-up as visit-weighted means grounded in normalized
terminal returns, and value/policy networks are fit on replay batches
drawn uniformly per timestep. At evaluation time the agent can either
run a fresh per-move search or play its distilled policy directly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import harness
from .approx import PolicyModel, SupportCodec, ValueModel
from .bandit import legal_policy, sample_index
from .cce import normalize_losses
from .config import Config
from .data import (GameTree, ReplayBuffer, ReplayEntry, UniformPolicySource,
                   generate_tree, replay_sample)
from .games import game_from_id
from .games.base import Game, GameState
from .trainer import (GateDecision, fill_shared, share_mode_for,
                      validation_gate, value_players)

log = logging.getLogger("equilearn.baseline")

RandomAgent = harness.RandomAgent


@dataclass(frozen=True)
class SmctsConfig:
    game_id: str
    seed: int
    simulations: int
    iterations: int
    batches: int
    eval_simulations: int
    search_play: bool
    randomize_prob: float
    patience: int
    gate_matches: int
    q_hidden: int
    q_rep: int
    policy_hidden: int
    policy_rep: int
    learning_rate: float
    q_l2: float
    policy_l2: float
    q_dropout: float
    policy_dropout: float
    support_bins: int
    batch_size: int

    @classmethod
    def from_config(cls, cfg: Config) -> "SmctsConfig":
        return cls(
            game_id=cfg["game"], seed=cfg["seed"],
            simulations=cfg["smcts.simulations"],
            iterations=cfg["smcts.iterations"],
            batches=cfg["smcts.batches"],
            eval_simulations=cfg["smcts.eval_simulations"],
            search_play=cfg["smcts.search_play"],
            randomize_prob=cfg["train.randomize_prob"],
            patience=cfg["train.patience"],
            gate_matches=cfg["train.gate_matches"],
            q_hidden=cfg["net.q_hidden"], q_rep=cfg["net.q_rep"],
            policy_hidden=cfg["net.policy_hidden"],
            policy_rep=cfg["net.policy_rep"],
            learning_rate=cfg["net.learning_rate"],
            q_l2=cfg["net.q_l2"], policy_l2=cfg["net.policy_l2"],
            q_dropout=cfg["net.q_dropout"],
            policy_dropout=cfg["net.policy_dropout"],
            support_bins=cfg["net.support_bins"],
            batch_size=cfg["net.batch_size"],
        )


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def backup_tree_values(game: Game, tree: GameTree):
    """Replace node values bottom-up with visit-weighted child means.

    Deepest-layer nodes take 1 minus the min-max-normalized loss of
    their accumulated returns over the layer (exact terminal returns
    when the tree reaches the horizon), so backed-up values share the
    [0, 1] scale of the model estimates interior leaves keep.
    """
    from .trainer import grounding_layer
    frontier = grounding_layer(tree)
    deepest = tree.layer_of(frontier)
    returns = np.stack([game.accumulated_returns(n.state)
                        for n in deepest])
    grounded = 1.0 - normalize_losses(returns)
    for node, v in zip(deepest, grounded):
        node.value = v
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

    def predict(self, game: Game, state: GameState):
        if state.terminal:
            return game.terminal_returns(state), None
        weights = [self.agent.policy(state, p)
                   for p in range(game.num_players)]
        value = self.agent.state_value(state)
        return value, weights


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


class SmctsAgent:
    """Search-at-play or distilled-policy agent over the fitted models.

    With ``search_play`` the agent searches each state once and serves
    every player it controls on that state from the one search's root
    policies, drawing one action per player.
    """

    def __init__(self, game: Game, value_models: dict, policy_models: list,
                 share_mode: str, eval_simulations: int = 100,
                 search_play: bool = True, name: str = "smcts"):
        self.game = game
        self.value_models = value_models     # player -> ValueModel
        self.policy_models = policy_models
        self.share_mode = share_mode
        self.eval_simulations = eval_simulations
        self.search_play = search_play
        self.name = name
        self.training_log: list = []
        self.gate_score: float | None = None
        self._last_search: _LastSearch | None = None

    def state_value(self, state: GameState) -> np.ndarray:
        n = self.game.num_players
        out = np.full(n, 0.5)
        for p in value_players(self.share_mode, n):
            obs = self.game.observe(state, p)
            out[p] = float(self.value_models[p].predict(obs)[0])
        return fill_shared(out, self.share_mode)

    def policy(self, state: GameState, player: int) -> np.ndarray:
        obs = self.game.observe(state, player)
        return legal_policy(self.policy_models[player].predict(obs)[0],
                            self.game.legal_actions(state, player))

    def act(self, game: Game, state: GameState, player: int,
            rng: np.random.Generator) -> int:
        if self.search_play:
            last = self._last_search
            if (last is None or last.state is not state or last.rng is not rng
                    or player in last.served):
                _, policies = smcts_search(game, state, SmctsSource(self),
                                           self.eval_simulations, rng)
                last = self._last_search = _LastSearch(state, rng, policies)
            last.served.add(player)
            p = last.policies[player]
        else:
            p = self.policy(state, player)
        return sample_index(p, rng)


@dataclass
class _SearchNode:
    state: GameState
    value: np.ndarray
    weights: list | None
    visits: int = 0

    def __post_init__(self):
        self.children: dict = {}


def smcts_search(game: Game, state: GameState, source, simulations: int,
                 rng: np.random.Generator) -> tuple:
    """Per-move search; returns (root value estimate, per-player policies).

    Each node's weights are restricted to the legal actions and
    normalized once, when the node is created. Each simulation descends
    from the root sampling joint actions from those weights, expands one
    new edge (or stops at a terminal), and backs the leaf value up the
    path as a running mean. Terminal leaves ground the scale through a
    per-player sigmoid of accumulated returns; interior leaves keep the
    source's value estimate. Root policies are the marginal child-visit
    distributions.
    """
    if simulations < 1:
        raise ValueError("need at least one simulation")

    def make_node(s):
        if s.terminal:
            return _SearchNode(state=s, value=_sigmoid(
                game.terminal_returns(s)), weights=None)
        value, weights = source.predict(game, s)
        weights = [legal_policy(w, game.legal_actions(s, p))
                   for p, w in enumerate(weights)]
        return _SearchNode(state=s, value=np.asarray(value, dtype=float),
                           weights=weights)

    root = make_node(state)
    n = game.num_players
    for _ in range(simulations):
        node = root
        path = [root]
        leaf_value = node.value
        while not node.state.terminal:
            joint = tuple(sample_index(w, rng) for w in node.weights)
            child = node.children.get(joint)
            if child is None:
                child = make_node(game.step(node.state, joint).next_state)
                node.children[joint] = child
                path.append(child)
                leaf_value = child.value
                break
            node = child
            path.append(node)
            leaf_value = node.value
        for node in path:
            node.visits += 1
            node.value = node.value + (leaf_value - node.value) / node.visits
    policies = []
    for p in range(n):
        counts = np.zeros(game.spec.action_counts[p])
        for joint, child in root.children.items():
            counts[joint[p]] += child.visits
        policies.append(legal_policy(counts, game.legal_actions(state, p)))
    return root.value, policies


def smcts_train(cfg: Config, game: Game | None = None) -> SmctsAgent:
    """Fit search-guided value and policy networks under the same
    validation gate as equilibrium training."""
    sc = SmctsConfig.from_config(cfg)
    if game is None:
        game = game_from_id(sc.game_id)
    rng = np.random.default_rng(sc.seed)
    share = share_mode_for(game)
    players = value_players(share, game.num_players)
    codec = SupportCodec(num_bins=sc.support_bins, lo=0.0, hi=1.0)

    accepted: SmctsAgent | None = None
    accepted_score: float | None = None
    training_log: list = []
    stale = 0

    for it in range(sc.iterations):
        source = (UniformPolicySource() if accepted is None
                  else SmctsSource(accepted))
        tree = generate_tree(game, source, sc.simulations,
                             randomize=sc.randomize_prob, rng=rng)
        backup_tree_values(game, tree)
        buffer = ReplayBuffer()
        tree_to_replay(game, tree, buffer)

        value_models = {p: ValueModel(
            obs_size=game.observation_size, codec=codec,
            trunk_hidden=(sc.q_hidden, sc.q_hidden), rep_size=sc.q_rep,
            head_hidden=(sc.q_hidden, sc.q_hidden),
            dropout_rate=sc.q_dropout, l2_coeff=sc.q_l2,
            learning_rate=sc.learning_rate,
            seed=sc.seed + 7919 * it + p) for p in players}
        policy_models = [PolicyModel(
            obs_size=game.observation_size,
            num_actions=game.spec.action_counts[p],
            trunk_hidden=(sc.policy_hidden, sc.policy_hidden),
            rep_size=sc.policy_rep,
            head_hidden=(sc.policy_hidden, sc.policy_hidden),
            dropout_rate=sc.policy_dropout, l2_coeff=sc.policy_l2,
            learning_rate=sc.learning_rate,
            seed=sc.seed + 1009 * it + p)
            for p in range(game.num_players)]

        v_losses, p_losses = [], []
        for _ in range(sc.batches):
            batch = replay_sample(buffer, sc.batch_size, rng)
            for p in players:
                sub = [e for e in batch if e.player == p]
                if not sub:
                    continue
                obs = np.stack([e.observations[p] for e in sub])
                vals = np.array([e.value for e in sub])
                v_losses.append(value_models[p].fit(obs, vals, 1,
                                                    sc.batch_size, rng))
            for p in range(game.num_players):
                sub = [e for e in batch if e.player == p]
                if not sub:
                    continue
                obs = np.stack([e.observations[p] for e in sub])
                pols = np.stack([e.policy for e in sub])
                p_losses.append(policy_models[p].fit(obs, pols, 1,
                                                     sc.batch_size, rng))

        candidate = SmctsAgent(game, value_models, policy_models, share,
                               eval_simulations=sc.eval_simulations,
                               search_play=sc.search_play)
        decision: GateDecision = validation_gate(
            candidate, accepted_score, game, sc.gate_matches,
            seed=sc.seed + 700_000 + it)
        training_log.append({
            "iteration": it, "replay_size": len(buffer),
            "value_loss": float(np.mean(v_losses)) if v_losses else None,
            "policy_loss": float(np.mean(p_losses)) if p_losses else None,
            "gate": ("accept" if decision.accepted else "rollback")
                    + f" score={decision.score:.4f}",
        })
        log.info("smcts iter %d: replay %d, gate %.4f -> %s", it,
                 len(buffer), decision.score,
                 "accept" if decision.accepted else "rollback")
        if decision.accepted:
            accepted = candidate
            accepted_score = decision.score
        stale = 0 if decision.improved else stale + 1
        if stale >= sc.patience:
            log.info("terminating after %d non-improving iterations", stale)
            break

    if accepted is None:
        raise RuntimeError("training produced no accepted agent")
    accepted.training_log = training_log
    accepted.gate_score = accepted_score
    return accepted
