"""Independent brute-force oracles used by the acceptance tests.

Everything here enumerates exhaustively and avoids the library's tree
and model machinery on purpose: values come from exact child lookups,
never from fitted approximators.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from equilearn.bandit import cdf_rows, default_schedule, draw_rows, \
    sample_index
from equilearn.cce import ma_exp_ix_batch, normalize_losses
from equilearn.data import GameTree, TreeNode
from equilearn.trainer import fill_shared, value_players


def enumerate_layers(game):
    """Exhaustive per-timestep state dictionaries, keyed by state key."""
    layers = [dict() for _ in range(game.horizon + 1)]
    for state, _ in game.start_states():
        layers[0][state.key()] = state
    for h in range(game.horizon):
        for state in layers[h].values():
            if state.terminal:
                continue
            legal = [game.legal_actions(state, p)
                     for p in range(game.num_players)]
            for joint in itertools.product(*legal):
                child = game.step(state, joint).next_state
                layers[h + 1][child.key()] = child
    return layers


def backward_cce_values(game, rounds, rng):
    """Exact-child backward stage solving over the full game.

    Terminal values are min-max normalized returns over the terminal
    layer (the same grounding convention the training loop uses); each
    interior state is solved with simultaneous EXP-IX on the exact child
    values. Returns a list of per-layer {state key: value vector} maps.
    """
    layers = enumerate_layers(game)
    values = [dict() for _ in layers]
    terminal = list(layers[game.horizon].values())
    returns = np.stack([game.terminal_returns(s) for s in terminal])
    grounded = 1.0 - normalize_losses(returns)
    for s, v in zip(terminal, grounded):
        values[game.horizon][s.key()] = v
    for h in range(game.horizon - 1, -1, -1):
        child_values = values[h + 1]
        for key, state in layers[h].items():
            counts = game.spec.action_counts
            tensor = np.empty(tuple(counts) + (game.num_players,))
            for joint in itertools.product(*(range(a) for a in counts)):
                child = game.step(state, joint).next_state
                tensor[joint] = child_values[child.key()]
            losses = np.clip(1.0 - tensor, 0.0, 1.0)
            out = ma_exp_ix_batch(losses[None], rounds, rng=rng)
            values[h][key] = out.values[0]
    return values


def scalar_exp_ix(loss_tensor, rounds, mask, rng):
    """Simultaneous EXP-IX on one stage game, one player and one round
    at a time: the reference the vectorized solver must match exactly.

    ``loss_tensor`` has shape (A_1, ..., A_N, N) and ``mask`` holds one
    boolean row per player. Returns (joint-action visit counts,
    per-player values, per-player masked policies).
    """
    counts = loss_tensor.shape[:-1]
    params = default_schedule(max(2, max(counts)), rounds)

    def policy(lw, m):
        w = np.exp(np.where(m, lw, -np.inf) - lw[m].max())
        return w / w.sum()

    log_w = [np.zeros(a) for a in counts]
    loss_sums = np.zeros(loss_tensor.shape[-1])
    visits = {}
    for _ in range(rounds):
        ps = [policy(lw, m) for lw, m in zip(log_w, mask)]
        joint = tuple(sample_index(p, rng) for p in ps)
        losses = loss_tensor[joint]
        loss_sums += losses
        visits[joint] = visits.get(joint, 0) + 1
        for i, a in enumerate(joint):
            log_w[i][a] -= (params.eta * losses[i]
                            / (ps[i][a] + params.gamma_ix))
    return (visits, 1.0 - loss_sums / rounds,
            [policy(lw, m) for lw, m in zip(log_w, mask)])


def dense_batch_exp_ix(loss_tensors, masks, rounds, params, rng):
    """Simultaneous EXP-IX on a batch of stage games, every game sampled
    every round: the reference the batch solver's forced-game shortcut
    must match byte for byte.

    ``loss_tensors`` has shape (B, A_1, ..., A_N, N) and ``masks``
    (B, N, A_max). Returns (log-weights, policies, values, joint
    counts).
    """
    b = loss_tensors.shape[0]
    n = loss_tensors.shape[-1]
    action_counts = loss_tensors.shape[1:-1]
    a_max = max(action_counts)
    joint = int(np.prod(action_counts))
    flat_losses = loss_tensors.reshape(b, joint, n)
    eta, gamma = params.eta, params.gamma_ix
    strides = np.empty(n, dtype=int)
    acc = 1
    for i in range(n - 1, -1, -1):
        strides[i] = acc
        acc *= action_counts[i]

    log_w = np.zeros((b, n, a_max))
    neg_inf = np.where(masks, 0.0, -np.inf)
    loss_sums = np.zeros((b, n))
    counts = np.zeros((b, joint), dtype=np.int64)
    bi = np.arange(b)[:, None]
    ni = np.arange(n)[None, :]
    for _ in range(rounds):
        lw = log_w + neg_inf
        lw -= lw.max(axis=2, keepdims=True)
        w = np.exp(lw)
        p = w / w.sum(axis=2, keepdims=True)
        c = np.cumsum(p, axis=2)
        c /= c[:, :, -1:]
        u = rng.random((b, n, 1))
        chosen = (u >= c).sum(axis=2)
        p_sel = p[bi, ni, chosen]
        flat = chosen @ strides
        losses = flat_losses[np.arange(b), flat]          # (B, N)
        loss_sums += losses
        np.add.at(counts, (np.arange(b), flat), 1)
        log_w[bi, ni, chosen] -= eta * losses / (p_sel + gamma)

    lw = log_w + neg_inf
    lw -= lw.max(axis=2, keepdims=True)
    w = np.exp(lw)
    policies = w / w.sum(axis=2, keepdims=True)
    return log_w, policies, 1.0 - loss_sums / rounds, counts


def loop_prune_dominated(loss_tensor, legal):
    """Iterated strict dominance on one stage game by a pair loop over
    each player's arms, one arm at a time: the reference the whole-array
    pruning must match mask for mask.

    ``loss_tensor`` has shape (A_1, ..., A_N, N) and ``legal`` holds one
    boolean row per player. Returns per-player masks.
    """
    counts = loss_tensor.shape[:-1]
    n = loss_tensor.shape[-1]
    mask = [np.array(m, dtype=bool) for m in legal]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            li = np.moveaxis(loss_tensor[..., i], i, 0)
            li = li.reshape(counts[i], -1)
            opp = np.ones(1, dtype=bool)
            for j in range(n):
                if j != i:
                    opp = np.outer(opp, mask[j]).ravel()
            live = np.flatnonzero(mask[i])
            for a in live:
                if mask[i].sum() == 1:
                    break
                for a2 in live:
                    if a2 == a or not mask[i][a2]:
                        continue
                    if np.all(li[a2, opp] < li[a, opp]):
                        mask[i][a] = False
                        changed = True
                        break
    return mask


def legal_policy(weights, legal):
    """``weights`` restricted to the ``legal`` arms, clipped at zero and
    normalized; uniform over the legal arms when none has mass.

    ``bandit.legal_policy`` as it was before the row-block rule, one row
    at a time: ``bandit.legal_rows`` must match it byte for byte."""
    w = np.asarray(weights, dtype=float)
    mask = np.zeros(len(w), dtype=bool)
    mask[list(legal)] = True
    w = np.where(mask, np.maximum(w, 0.0), 0.0)
    total = w.sum()
    return w / total if total > 0.0 else mask / mask.sum()


class PerPlayerAgent:
    """``TrainedAgent.act`` as it was before one ``act`` served every
    player an agent controls from one state's rows: each move is one
    single-row forward of the player's policy network, normalized by
    :func:`legal_policy`, and one draw. Verbatim but for the receiver;
    the agent's match records and ``policy`` bits must match it."""

    def __init__(self, agent):
        self.agent = agent
        self.name = agent.name

    def policy(self, state, player):
        agent = self.agent
        obs = agent.game.observe(state, player)
        return legal_policy(agent.policy_models[player].predict(obs)[0],
                            agent.game.legal_actions(state, player))

    def act(self, game, state, player, rng):
        return sample_index(self.policy(state, player), rng)


def _softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def infer(weights, biases, x, head_kind):
    """``approx.mlp.infer`` (with its softmax) as it was before the
    in-place pass, each step into a new array: the in-place pass must
    match it byte for byte."""
    h = x
    last = len(weights) - 1
    for li, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if li < last:
            h = np.maximum(h, 0.0)
    return h if head_kind == "linear" else _softmax(h)


class PerPlayerSmctsSource:
    """The search baseline's node predictions one state and one player at
    a time: a single-row forward per player through each policy and value
    network, each policy row normalized by :func:`legal_policy`.
    ``predict`` and ``state_value`` are ``SmctsSource.predict`` and
    ``SmctsAgent.state_value`` as they were before the stacked pass,
    verbatim but for the receiver and the block protocol (values ``(k,
    N)``, weights ``(k, N, A_max)`` zero past each player's action
    count); the stacked pass must match them byte for byte.
    """

    def __init__(self, agent):
        self.agent = agent

    def predict(self, game, states):
        n = game.num_players
        values = np.empty((len(states), n))
        weights = np.zeros((len(states), n, max(game.spec.action_counts)))
        for i, state in enumerate(states):
            for p in range(n):
                obs = game.observe(state, p)
                w = legal_policy(self.agent.policy_models[p].predict(obs)[0],
                                 game.legal_actions(state, p))
                weights[i, p, :len(w)] = w
            values[i] = self.state_value(state)
        return values, weights

    def state_value(self, state):
        agent = self.agent
        n = agent.game.num_players
        out = np.full(n, 0.5)
        for p in value_players(agent.share_mode, n):
            obs = agent.game.observe(state, p)
            out[p] = float(agent.state_value_models[p].predict(obs)[0])
        return fill_shared(out, agent.share_mode)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def searchsorted_index(weights, rng):
    """The action sampler as it was before the row draw: one uniform,
    located in the rescaled cumulative sum by ``searchsorted``."""
    c = np.cumsum(weights, dtype=float)
    c /= c[-1]
    return int(np.searchsorted(c, rng.random(), side="right"))


@dataclass
class _SearchNode:
    state: object
    value: np.ndarray
    weights: list | None
    visits: int = 0

    def __post_init__(self):
        self.children: dict = {}


def sequential_smcts_search(game, state, source, simulations, rng):
    """The search baseline as it was before batched leaf evaluation: each
    new node is predicted when it is made, one state per call, and each
    simulation backs up before the next descends. Verbatim but for the
    block-protocol adapter (one state per ``source.predict`` call, its
    row 0 taken and each player's weights cut to its action count), the
    sampler, :func:`searchsorted_index`, and the row rule, this module's
    :func:`legal_policy`; the batched search must match its root value,
    root policies and generator stream byte for byte.
    """
    if simulations < 1:
        raise ValueError("need at least one simulation")

    def make_node(s):
        if s.terminal:
            return _SearchNode(state=s, value=_sigmoid(
                game.terminal_returns(s)), weights=None)
        values, weights = source.predict(game, [s])
        weights = [legal_policy(w[:a], game.legal_actions(s, p)) for p, (w, a)
                   in enumerate(zip(weights[0], game.spec.action_counts))]
        return _SearchNode(state=s, value=np.asarray(values[0], dtype=float),
                           weights=weights)

    root = make_node(state)
    n = game.num_players
    for _ in range(simulations):
        node = root
        path = [root]
        leaf_value = node.value
        while not node.state.terminal:
            joint = tuple(searchsorted_index(w, rng) for w in node.weights)
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


def q_predict(model, obs, joints):
    """``QValueModel.predict`` as it was before the factored head: the
    scalar values of row-aligned observations and joint actions, each
    row a full trunk and head pass over ``[rep; encoding]``. The factored
    ``QValueModel.joint_values`` must match it to the last few bits."""
    support = model.net.forward(obs, model.encode_actions(joints))
    return support @ model.codec.centers


def _node_for(tree, state, source):
    """Get or create the node for ``state``; returns (node, created).

    A new non-terminal node keeps the source's legal policies as
    per-player CDF rows.
    """
    layer = tree.layers[state.timestep]
    key = state.key()
    node = layer.get(key)
    if node is not None:
        return node, False
    game = tree.game
    if state.terminal:
        value, cdf = game.terminal_returns(state), None
    else:
        values, policies = source.predict(game, [state])
        value, cdf = values[0], cdf_rows(policies[0])
    node = TreeNode(state=state, value=value, cdf=cdf)
    layer[key] = node
    return node, True


def _sample_action(game, node, player, randomized, rng):
    if randomized:
        legal = game.legal_actions(node.state, player)
        return int(legal[rng.integers(len(legal))])
    return int(draw_rows(node.cdf[player], rng.random()))


def eager_generate_tree(game, source, num_sims, randomize=None, rng=None):
    """``data.generate_tree`` as it was before deferred predictions: each
    new node is predicted when it is made, one state per
    ``source.predict`` call. Verbatim; the deferred tree must match its
    nodes, visit counts, values, CDF rows, children and generator stream
    byte for byte."""
    if num_sims < 1:
        raise ValueError("need at least one simulation")
    if rng is None:
        rng = np.random.default_rng()
    tree = GameTree(game)
    n = game.num_players
    for _ in range(num_sims):
        start = game.sample_start(rng)
        if randomize is None:
            random_players = [False] * n
        elif isinstance(randomize, float):
            random_players = list(rng.random(n) < randomize)
        else:
            random_players = list(randomize)
        node, created = _node_for(tree, start, source)
        if not created:
            node.visit_count += 1
        while not node.state.terminal:
            joint = tuple(_sample_action(game, node, p, random_players[p],
                                         rng) for p in range(n))
            child = node.children.get(joint)
            if child is not None:
                child.visit_count += 1
                node = child
                continue
            result = game.step(node.state, joint)
            child, created = _node_for(tree, result.next_state, source)
            if not created:
                child.visit_count += 1  # merged node
            node.children[joint] = child
            break  # a new edge is a leaf: the simulation ends here
    return tree
