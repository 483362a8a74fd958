"""Construction and stabilization of gamma parallel spanning trees.

Trees are built by a synchronous round-based invitation protocol: once a
node is part of tree i it invites all neighbors in the next round, and
un-joined nodes accept invitations preferring neighbors that parent them
in the fewest trees (parent diversity). Acceptance of a non-preferred
invitation happens with probability q per round, guaranteeing
termination; DIV-DEP further keeps the lowest-level inviters. That rule
is `choose_invitation`, applied by `TreeBuilder` during construction, by
`handle_join` when it replays the protocol for a joining node, and by
`handle_departure` when a departed node's subtrees pick new parents.
An invitation is its inviter's id; the rule reads the inviter's level
from the `TreeSet`. A plain per-tree BFS is available as a baseline
strategy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from f2froute.graph import Graph, connected_components, diameter_estimate, shuffle

ABSENT = -2
ROOT = -1

STRATEGIES = ("DIV-RAND", "DIV-DEP", "BFS")


class ConstructionError(RuntimeError):
    """Tree construction cannot proceed (disconnected input, round cap)."""


class JoinError(RuntimeError):
    """A joining node has no usable neighbor in some tree."""


class RootDepartureError(RuntimeError):
    """Departure of a tree root; caller must reconstruct that tree."""

    def __init__(self, node: int, trees: list[int]):
        super().__init__(f"node {node} is the root of trees {trees}")
        self.node = node
        self.trees = trees


@dataclass
class TreeConfig:
    gamma: int = 1
    accept_prob: float = 0.5
    strategy: str = "DIV-RAND"
    rng_seed: int = 0

    def __post_init__(self):
        if self.gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if not 0 < self.accept_prob <= 1:
            raise ValueError(f"accept_prob must be in (0, 1], got {self.accept_prob}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")


class TreeSet:
    """Per-tree parent/child/level records plus parent-diversity counters.

    parent[i][v] is ABSENT while v is outside tree i, ROOT for the root.
    children[i][v] lists v's children in tree i; while v has none, the
    entry is the shared empty tuple (), not a list of its own. Only
    `add_child` and `remove_child` write a child into or out of an entry,
    so that a first child makes a one-element list and removing the last
    one restores the tuple; code that drops a node resets its entry to ().
    pc[v] maps a neighbor to the number of trees in which that neighbor
    is currently v's parent. max_join_round[i] is the running maximum of
    join_round[i], raised by `attach`, the only writer of join rounds, so
    that a join reads it without scanning the tree. It stays exact because
    every stamp is at least the maximum so far (construction rounds grow,
    joins and reattachments add ts.clock to it); `validate` checks this.
    """

    def __init__(self, n: int, roots: list[int], cfg: TreeConfig | None = None):
        gamma = len(roots)
        self.cfg = cfg if cfg is not None else TreeConfig(gamma=gamma)
        self.roots = list(roots)
        self.parent = [[ABSENT] * n for _ in range(gamma)]
        self.level = [[-1] * n for _ in range(gamma)]
        self.join_round = [[-1] * n for _ in range(gamma)]
        self.children = [[()] * n for _ in range(gamma)]
        self.pc = [dict() for _ in range(n)]
        self.max_join_round = [0] * gamma
        self.clock = 0
        for i, r in enumerate(roots):
            self.parent[i][r] = ROOT
            self.level[i][r] = 0
            self.join_round[i][r] = 0

    @property
    def gamma(self) -> int:
        return len(self.roots)

    @property
    def node_count(self) -> int:
        return len(self.pc)

    def in_tree(self, tree: int, v: int) -> bool:
        return self.parent[tree][v] != ABSENT

    def attach(self, tree: int, v: int, parent: int, round_no: int) -> None:
        self.parent[tree][v] = parent
        self.level[tree][v] = self.level[tree][parent] + 1
        self.join_round[tree][v] = round_no
        if round_no > self.max_join_round[tree]:
            self.max_join_round[tree] = round_no
        self.add_child(tree, parent, v)
        self.add_parent(v, parent)

    def add_child(self, tree: int, parent: int, v: int) -> None:
        """List v among parent's children in the tree."""
        kids = self.children[tree][parent]
        if kids:
            kids.append(v)
        else:
            self.children[tree][parent] = [v]

    def remove_child(self, tree: int, parent: int, v: int) -> None:
        """Take v off parent's children in the tree; the last one leaves ()."""
        kids = self.children[tree][parent]
        kids.remove(v)
        if not kids:
            self.children[tree][parent] = ()

    def add_parent(self, v: int, parent: int) -> None:
        """Count one tree more in which parent is v's parent."""
        self.pc[v][parent] = self.pc[v].get(parent, 0) + 1

    def release_parent(self, v: int, parent: int) -> None:
        """Count one tree fewer in which parent is v's parent."""
        cnt = self.pc[v].get(parent, 0) - 1
        if cnt > 0:
            self.pc[v][parent] = cnt
        else:
            self.pc[v].pop(parent, None)

    def descendants(self, tree: int, node: int) -> list[int]:
        out = []
        stack = list(self.children[tree][node])
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(self.children[tree][u])
        return out

    def top_down(self, tree: int) -> list[int]:
        """The tree's members breadth-first over the children lists, root
        first: each node comes after its parent."""
        order = [self.roots[tree]]
        for u in order:  # the list grows as it is walked
            order.extend(self.children[tree][u])
        return order

    def subtree_sizes(self, tree: int) -> list[int]:
        """Per node, its subtree's member count (itself included); 0 if absent."""
        size = [0] * self.node_count
        for u in reversed(self.top_down(tree)):
            size[u] += 1
            if self.parent[tree][u] >= 0:
                size[self.parent[tree][u]] += size[u]
        return size

    def copy(self) -> "TreeSet":
        dup = TreeSet.__new__(TreeSet)
        dup.cfg = self.cfg
        dup.roots = list(self.roots)
        dup.parent = [list(p) for p in self.parent]
        dup.level = [list(l) for l in self.level]
        dup.join_round = [list(j) for j in self.join_round]
        dup.max_join_round = list(self.max_join_round)
        dup.children = [[list(c) if c else () for c in tree] for tree in self.children]
        dup.pc = [dict(d) for d in self.pc]
        dup.clock = self.clock
        return dup

    def validate(self, g: Graph) -> None:
        """Assert structural invariants; raises AssertionError on violation."""
        for i in range(self.gamma):
            assert self.max_join_round[i] == max(self.join_round[i])
            listed = 0
            for v in range(self.node_count):
                kids = self.children[i][v]
                # child -> parent: each child listed once, under its own parent
                assert len(set(kids)) == len(kids)
                assert all(self.parent[i][c] == v for c in kids)
                listed += len(kids)
                p = self.parent[i][v]
                if p == ABSENT:
                    assert not kids
                    continue
                if p == ROOT:
                    assert v == self.roots[i] and self.level[i][v] == 0
                    continue
                assert v in g.neighbors(p) or p in g.neighbors(v)
                assert self.level[i][v] == self.level[i][p] + 1
                assert v in self.children[i][p]
                # parent chain reaches the root in level(v) steps
                u, steps = v, 0
                while self.parent[i][u] != ROOT:
                    u = self.parent[i][u]
                    steps += 1
                    assert steps <= self.node_count
                assert steps == self.level[i][v]
            assert listed == sum(p != ABSENT for p in self.parent[i]) - 1


def choose_invitation(
    pc: dict[int, int], degree: int, invs: dict[int, list[int]], level: list[list[int]],
    rng: random.Random, cfg: TreeConfig,
) -> tuple[int, int] | None:
    """The invitation-selection rule; returns (tree, inviter) or None.

    pc and degree are the deciding node's parent counts and degree, invs
    its pending invitations as tree -> [inviter]: an invitation is its
    inviter's id. An inviter whose count equals the minimum over all
    neighbors (0 while some neighbor parents the node in no tree) is
    preferred and accepted at once. Otherwise the node accepts with
    probability cfg.accept_prob, among the inviters of least count.
    DIV-DEP keeps the candidates of lowest level[tree][inviter], read
    from the TreeSet, before the uniform draw.
    """
    min_all = 0 if len(pc) < degree else min(pc.values())
    cands = [(tree, w) for tree, ws in invs.items() for w in ws if pc.get(w, 0) == min_all]
    if not cands:
        if rng.random() > cfg.accept_prob:
            return None
        best = min(pc.get(w, 0) for ws in invs.values() for w in ws)
        cands = [(tree, w) for tree, ws in invs.items() for w in ws if pc.get(w, 0) == best]
    if cfg.strategy == "DIV-DEP":
        low = min(level[tree][w] for tree, w in cands)
        cands = [(tree, w) for tree, w in cands if level[tree][w] == low]
    return rng.choice(cands)


class TreeBuilder:
    """In-progress synchronous construction; step() runs one round."""

    def __init__(self, g: Graph, cfg: TreeConfig, roots: list[int]):
        self.g = g
        self.cfg = cfg
        self.rng = random.Random(cfg.rng_seed)
        self.ts = TreeSet(g.node_count, roots, cfg)
        self.round = 0
        diam = diameter_estimate(g, seed=cfg.rng_seed)
        self.round_cap = max(10, int(50 * cfg.gamma / cfg.accept_prob * max(diam, 1)))
        self.joined = cfg.gamma  # (node, tree) memberships so far
        self.target = g.node_count * cfg.gamma
        # pending invitations: node -> tree -> list of inviters
        self.pending: dict[int, dict[int, list[int]]] = {}
        self._outbox: list[tuple[int, int]] = list(enumerate(roots))  # (tree, node)

    @property
    def finished(self) -> bool:
        return self.joined >= self.target

    def step(self) -> None:
        """One synchronous round: deliver invitations, then let nodes decide."""
        if self.finished:
            return
        self.round += 1
        ts, g = self.ts, self.g
        for tree, u in self._outbox:
            for v in g.neighbors(u):
                if not ts.in_tree(tree, v):
                    self.pending.setdefault(v, {}).setdefault(tree, []).append(u)
        self._outbox = []
        for v in list(self.pending):
            choice = choose_invitation(ts.pc[v], g.degree(v), self.pending[v], ts.level, self.rng, self.cfg)
            if choice is None:
                continue
            tree, w = choice
            ts.attach(tree, v, w, self.round)
            self.joined += 1
            del self.pending[v][tree]
            if not self.pending[v]:
                del self.pending[v]
            self._outbox.append((tree, v))

    def run(self) -> TreeSet:
        while not self.finished:
            if self.round >= self.round_cap:
                raise ConstructionError(
                    f"round cap {self.round_cap} hit with {self.target - self.joined} "
                    "memberships outstanding"
                )
            self.step()
        return self.ts


def _construct_bfs(g: Graph, cfg: TreeConfig, roots: list[int]) -> TreeSet:
    """Independent per-tree breadth-first construction with random child
    order; each node's order equals rng.shuffle of its neighbour list."""
    bits = random.Random(cfg.rng_seed).getrandbits
    ts = TreeSet(g.node_count, roots, cfg)
    for i, r in enumerate(roots):
        parent, level = ts.parent[i], ts.level[i]
        order = [r]  # grows as it is walked: the built tree's top_down order
        for u in order:
            nbrs = g.adjacency[u][:]
            shuffle(bits, nbrs)
            round_no = level[u] + 1
            for v in nbrs:
                if parent[v] == ABSENT:
                    ts.attach(i, v, u, round_no)
                    order.append(v)
    return ts


def construct_trees(g: Graph, cfg: TreeConfig, roots: list[int]) -> TreeSet:
    """Build gamma spanning trees of a connected graph."""
    if len(roots) != cfg.gamma:
        raise ConstructionError(f"need {cfg.gamma} roots, got {len(roots)}")
    comps = connected_components(g)
    if len(comps) != 1:
        raise ConstructionError(f"input graph has {len(comps)} components; pass the giant component")
    if cfg.strategy == "BFS":
        return _construct_bfs(g, cfg, roots)
    return TreeBuilder(g, cfg, roots).run()


def handle_join(ts: TreeSet, g: Graph, new_node: int, seed: int = 0) -> TreeSet:
    """Join a node as a leaf of every tree it is missing from (all of
    them after its departure, some after a departure stranded it).

    Neighbors are assumed to invite one round after their recorded
    join_round; the node applies `choose_invitation` locally, with the
    q and strategy the trees were built with (ts.cfg). A round with no
    invitation pending is skipped: the replay jumps to the next arrival,
    and no random number is drawn in the rounds it passes over.
    """
    rng = random.Random(seed)
    missing = [i for i in range(ts.gamma) if not ts.in_tree(i, new_node)]
    if not missing:
        raise JoinError(f"node {new_node} already in every tree")
    nbrs = g.neighbors(new_node)
    # (arrival_round, tree, inviter), one per neighbour in each missing tree
    events = sorted([(ts.join_round[i][w] + 1, i, w) for i in missing for w in nbrs if ts.in_tree(i, w)])
    unreachable = set(missing).difference([i for _, i, _ in events])
    if unreachable:
        raise JoinError(f"node {new_node} has no neighbor in tree {min(unreachable)}")
    pending: dict[int, list[int]] = {}
    joined: dict[int, int] = {}  # tree -> chosen parent
    pc = dict(ts.pc[new_node])  # the parents it keeps in the trees it is in
    degree = g.degree(new_node)
    round_no, idx = 0, 0
    # a non-preferred invitation is accepted w.p. q per round
    cap = events[-1][0] + int(500 / ts.cfg.accept_prob)
    while len(joined) < len(missing):
        round_no += 1
        if round_no > cap:
            raise JoinError(f"join replay for node {new_node} did not converge")
        while idx < len(events) and events[idx][0] <= round_no:
            _, tree, w = events[idx]
            idx += 1
            if tree not in joined:
                pending.setdefault(tree, []).append(w)
        if not pending:
            # a missing tree is unjoined, so its invitations are still to come
            round_no = events[idx][0] - 1
            continue
        choice = choose_invitation(pc, degree, pending, ts.level, rng, ts.cfg)
        if choice is None:
            continue
        tree, w = choice
        joined[tree] = w
        pc[w] = pc.get(w, 0) + 1
        del pending[tree]
    ts.clock += 1
    for tree, w in joined.items():
        ts.attach(tree, new_node, w, ts.clock + ts.max_join_round[tree])
    return ts


def handle_departure(
    ts: TreeSet, g: Graph, node: int, seed: int = 0
) -> tuple[TreeSet, int]:
    """Remove a non-root node from all trees; reattach its subtrees.

    In each tree the departed node's children root detached subtrees, and
    while the repair runs a node is a member iff it has a level (>= 0).
    The subtree roots rejoin in waves: each root with member neighbors
    picks its parent by `choose_invitation`, with the trees' own q and
    strategy, and its whole subtree moves with it; a root that declines
    under q retries in the next wave. When no root has a member neighbor,
    the first subtree with a descendant that has one is re-rooted there;
    when none has, the rest cannot reach the tree and is dropped from it.
    Returns the number of coordinate reassignments, i.e. the total
    descendant count of the departed node across trees, including the
    nodes a repair drops from a tree: they lose their coordinate there
    instead of getting a new one.
    """
    root_trees = [i for i in range(ts.gamma) if ts.roots[i] == node]
    if root_trees:
        raise RootDepartureError(node, root_trees)
    rng = random.Random(seed)
    ts.clock += 1
    reassigned = 0
    for i in range(ts.gamma):
        if not ts.in_tree(i, node):
            continue
        parent, level, children = ts.parent[i], ts.level[i], ts.children[i]
        subtrees = children[node]
        for c in subtrees:
            for d in [c] + ts.descendants(i, c):
                level[d] = -1
                reassigned += 1
            parent[c] = ABSENT
            ts.release_parent(c, node)
        old_parent = parent[node]  # a member, not the root: RootDepartureError came first
        ts.remove_child(i, old_parent, node)
        ts.release_parent(node, old_parent)
        parent[node] = ABSENT
        level[node] = -1
        children[node] = ()
        rng.shuffle(subtrees)
        while subtrees:
            waiting, invited = [], False
            for c in subtrees:
                invs = [v for v in g.neighbors(c) if level[v] >= 0]
                invited = invited or bool(invs)
                choice = invs and choose_invitation(ts.pc[c], g.degree(c), {i: invs}, ts.level, rng, ts.cfg)
                if not choice:  # no member neighbor, or declined under q
                    waiting.append(c)
                    continue
                ts.attach(i, c, choice[1], ts.clock + ts.max_join_round[i])
                for d in ts.descendants(i, c):  # each after its parent
                    level[d] = level[parent[d]] + 1
            subtrees = waiting
            if invited:
                continue
            found = next(((c, d) for c in subtrees for d in ts.descendants(i, c)
                          if any(level[v] >= 0 for v in g.neighbors(d))), None)
            if found is None:
                for c in subtrees:
                    for d in [c] + ts.descendants(i, c):
                        if parent[d] >= 0:
                            ts.release_parent(d, parent[d])
                        parent[d] = ABSENT
                        children[d] = ()
                break
            c, d = found
            path = [d]
            while path[-1] != c:
                path.append(parent[path[-1]])
            for u, p in zip(path, path[1:]):  # u was p's child; flip the edge
                ts.remove_child(i, p, u)
                ts.add_child(i, u, p)
                ts.release_parent(u, p)
                parent[p] = u
                ts.add_parent(p, u)
            parent[d] = ABSENT
            subtrees.remove(c)
            subtrees.append(d)
    return ts, reassigned


def descendants_count(ts: TreeSet, node: int, tree: int) -> int:
    """Number of nodes whose parent chain includes node in the given tree."""
    if not 0 <= tree < ts.gamma:
        raise ValueError(f"tree index {tree} out of range [0, {ts.gamma})")
    return len(ts.descendants(tree, node))
