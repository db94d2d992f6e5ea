"""Block tree depth, stability, chain selection, and the dump format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcstate.blocktree import (
    BlockTree,
    DepthKind,
    TreeStructureError,
    UnknownBlockError,
    WorkRatio,
)
from btcstate.chain import Hash256, sha256d, work_from_bits
from btcstate.netsim import regtest_genesis_block

from conftest import (
    EASY_BITS,
    HARDER_BITS,
    brute_best_path,
    brute_depth,
    brute_stability,
    make_tree,
    name_hash,
    random_tree,
)

CONF = DepthKind.CONFIRMATION
WORK = DepthKind.WORK


def two_fork_tree():
    # g -> a1 -> a2 -> a3 and g -> b1
    return make_tree([("a1", "g"), ("a2", "a1"), ("a3", "a2"), ("b1", "g")])


# -- depth ------------------------------------------------------------------


def test_depth_leaf_is_one():
    tree, ids = make_tree([])
    assert tree.depth(ids["g"], CONF) == 1


def test_depth_linear_chain():
    tree, ids = make_tree([("a", "g"), ("b", "a")])
    assert tree.depth(ids["g"], CONF) == 3
    assert tree.depth(ids["a"], CONF) == 2
    assert tree.depth(ids["b"], CONF) == 1


def test_depth_takes_max_branch():
    tree, ids = make_tree([("a", "g"), ("b", "a"), ("c", "g")])
    assert tree.depth(ids["g"], CONF) == brute_depth(tree, ids["g"], CONF) == 3


def test_depth_unknown_node():
    tree, _ = make_tree([])
    with pytest.raises(UnknownBlockError):
        tree.depth(name_hash("nope"), CONF)


def test_work_depth_uses_bits():
    tree, ids = make_tree([("a", "g")], bits={"a": HARDER_BITS})
    expected = work_from_bits(EASY_BITS) + work_from_bits(HARDER_BITS)
    assert tree.depth(ids["g"], WORK) == expected


# -- stability ----------------------------------------------------------------


def test_stability_winning_fork_block():
    tree, ids = two_fork_tree()
    # depth 3, rival depth 1: min(3, 3-1) = 2
    assert tree.stability(ids["a1"], CONF) == 2
    assert brute_stability(tree, ids["a1"], CONF) == 2


def test_stability_losing_fork_is_negative():
    tree, ids = two_fork_tree()
    assert tree.stability(ids["b1"], CONF) == -2


def test_stability_single_node():
    tree, ids = make_tree([])
    assert tree.stability(ids["g"], CONF) == 1


def test_stability_work_kind_returns_ratio():
    tree, ids = two_fork_tree()
    score = tree.stability(ids["a1"], WORK, reference=ids["g"])
    assert isinstance(score, WorkRatio)
    w = work_from_bits(EASY_BITS)
    assert score.num == 2 * w and score.den == w
    assert score >= 2
    assert score < 3


def test_delta_stable_zero():
    tree, ids = two_fork_tree()
    # depth condition is vacuous at 0, but the separation condition still
    # excludes blocks strictly behind a same-height rival
    for name in ("g", "a1", "a2", "a3"):
        assert tree.is_delta_stable(ids[name], 0, CONF)
    assert not tree.is_delta_stable(ids["b1"], 0, CONF)
    # without a rival every block is 0-stable
    solo, solo_ids = make_tree([("a", "g")])
    assert solo.is_delta_stable(solo_ids["a"], 0, CONF)


def test_delta_stable_thresholds():
    tree, ids = two_fork_tree()
    assert tree.is_delta_stable(ids["a1"], 2, CONF)
    assert not tree.is_delta_stable(ids["a1"], 3, CONF)


def test_delta_stable_separation_flag():
    tree, ids = two_fork_tree()
    # depth alone reaches 3, but the lead over the rival b1 is only 2, and
    # the lead is always required
    assert tree.depth(ids["a1"], CONF) == 3
    assert not tree.is_delta_stable(ids["a1"], 3, CONF)
    assert tree.is_delta_stable(ids["a1"], 2, CONF)
    w = work_from_bits(EASY_BITS)
    assert tree.depth(ids["a1"], WORK) == 3 * w
    assert not tree.is_delta_stable(ids["a1"], 3, WORK)
    assert tree.is_delta_stable(ids["a1"], 2, WORK)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_delta_stable_equals_brute_stability_reaching_delta(seed):
    tree = random_tree(
        random.Random(seed), max_nodes=50, bits_choices=(EASY_BITS, HARDER_BITS)
    )
    root_work = work_from_bits(tree.bits(tree.root))
    for h in tree.hashes():
        for kind, unit in ((CONF, 1), (WORK, root_work)):
            score = brute_stability(tree, h, kind)
            for delta in range(9):
                assert tree.is_delta_stable(h, delta, kind) == (score >= delta * unit)


def test_delta_stable_monotone_on_random_trees():
    rng = random.Random(42)
    for _ in range(30):
        tree = random_tree(rng, max_nodes=60)
        for h in tree.hashes():
            stable_at = [d for d in range(0, 8) if tree.is_delta_stable(h, d, CONF)]
            # once unstable at some delta, never stable at a larger delta
            assert stable_at == list(range(len(stable_at)))


def test_confirmations_forkless_matches_standard_counting():
    tree, ids = make_tree([("a", "g"), ("b", "a"), ("c", "b")])
    tip_height = tree.height(ids["c"])
    for name in ("g", "a", "b", "c"):
        h = ids[name]
        assert tree.confirmations(h) == tip_height - tree.height(h) + 1
    assert tree.confirmations(ids["c"]) == 1


def test_confirmations_losing_fork_negative():
    tree, ids = two_fork_tree()
    assert tree.confirmations(ids["b1"]) == brute_stability(tree, ids["b1"], CONF) == -2


# -- current chain ----------------------------------------------------------------


def test_current_chain_linear():
    tree, ids = make_tree([("a", "g"), ("b", "a")])
    assert tree.current_chain() == [ids["g"], ids["a"], ids["b"]]


def test_current_chain_prefers_heavier_branch():
    tree, ids = make_tree(
        [("a1", "g"), ("a2", "a1"), ("a3", "a2"), ("b1", "g"), ("b2", "b1")]
    )
    assert tree.current_chain() == [ids["g"], ids["a1"], ids["a2"], ids["a3"]]
    assert tree.current_chain() == brute_best_path(tree)


def test_current_chain_tiebreak_smallest_hash():
    tree, ids = make_tree([("x", "g"), ("y", "g")])
    want = min(ids["x"], ids["y"])
    assert tree.current_chain() == [ids["g"], want]


def test_current_chain_total_work_is_max_over_leaves():
    rng = random.Random(7)
    for _ in range(25):
        tree = random_tree(rng, max_nodes=80, bits_choices=(EASY_BITS, HARDER_BITS))
        chain = tree.current_chain()
        assert chain[0] == tree.root
        for parent, child in zip(chain, chain[1:]):
            assert child in tree.children(parent)
        total = sum(tree.node_work(h) for h in chain)
        assert total == tree.depth(tree.root, WORK)
        assert chain == brute_best_path(tree)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_kept_tip_height_and_depths_match_brute_force_through_inserts_and_removals(seed):
    # Mostly equal-work blocks, so tied tips are common; depth queries are
    # interleaved so that inserts and removals meet warm caches.
    rng = random.Random(seed)
    tree = random_tree(rng, max_nodes=40, bits_choices=(EASY_BITS, EASY_BITS, HARDER_BITS))

    def check() -> None:
        best = brute_best_path(tree)
        assert tree.tip == best[-1]
        walked = [tree.tip]
        while tree.parent(walked[-1]) is not None:
            walked.append(tree.parent(walked[-1]))
        assert tree.current_chain() == tree.path_to(tree.tip) == walked[::-1] == best
        assert tree.max_height() == max(tree.height(h) for h in tree.hashes())
        for h in tree.hashes():
            assert tree.depth(h, WORK) == brute_depth(tree, h, WORK)

    check()
    for i in range(60):
        nodes = sorted(tree.hashes())
        roll = rng.random()
        if roll < 0.15 and len(nodes) > 1:
            tree.remove_subtree(rng.choice([h for h in nodes if h != tree.root]))
        elif roll < 0.2 and tree.tip != tree.root:
            tree.remove_subtree(tree.tip)
        else:
            parent = tree.tip if rng.random() < 0.3 else rng.choice(nodes)
            tree.add_raw(name_hash(f"op{i}"), parent, rng.choice((EASY_BITS, EASY_BITS, HARDER_BITS)))
        check()
        for h in rng.sample(sorted(tree.hashes()), min(3, len(tree))):
            kind = rng.choice((CONF, WORK))
            assert tree.depth(h, kind) == brute_depth(tree, h, kind)


def test_path_to_walks_between_ancestor_and_node():
    tree, ids = two_fork_tree()
    assert tree.path_to(ids["a3"]) == [ids["g"], ids["a1"], ids["a2"], ids["a3"]]
    assert tree.path_to(ids["a3"], ids["a1"]) == [ids["a1"], ids["a2"], ids["a3"]]
    assert tree.path_to(ids["a2"], ids["a2"]) == [ids["a2"]]
    assert tree.path_to(ids["a3"], ids["b1"]) is None  # a rival, not an ancestor
    assert tree.path_to(ids["a1"], ids["a3"]) is None  # a descendant
    with pytest.raises(UnknownBlockError):
        tree.path_to(ids["a3"], name_hash("nowhere"))


# -- incremental vs brute force -----------------------------------------------------


def test_incremental_equals_bruteforce_after_each_insertion():
    rng = random.Random(99)
    for _ in range(12):
        size = rng.randrange(5, 45)
        tree = BlockTree((name_hash("i0"), EASY_BITS))
        nodes = [tree.root]
        for i in range(1, size):
            parent = nodes[rng.randrange(len(nodes))]
            h = name_hash(f"i{i}")
            tree.add_raw(h, parent, rng.choice((EASY_BITS, HARDER_BITS)))
            nodes.append(h)
            for node in nodes:
                for kind in (CONF, WORK):
                    assert tree.depth(node, kind) == brute_depth(tree, node, kind)
                score = tree.stability(node, CONF)
                assert score == brute_stability(tree, node, CONF)


def test_removal_invalidates_depths():
    tree, ids = two_fork_tree()
    assert tree.depth(ids["g"], CONF) == 4
    removed = tree.remove_subtree(ids["a2"])
    assert removed == 2
    assert tree.depth(ids["g"], CONF) == 2
    assert ids["a3"] not in tree
    assert tree.depth(ids["a1"], CONF) == 1


def path_work(tree: BlockTree, h: Hash256) -> int:
    total = 0
    while h is not None:
        total += tree.node_work(h)
        h = tree.parent(h)
    return total


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_chain_work_is_node_work_summed_from_root(seed):
    rng = random.Random(seed)
    tree = random_tree(
        rng,
        max_nodes=80,
        bits_choices=(EASY_BITS, HARDER_BITS),
    )
    for h in tree.hashes():
        assert tree.chain_work(h) == path_work(tree, h)
    others = sorted(h for h in tree.hashes() if h != tree.root)
    if not others:
        return
    tree.remove_subtree(rng.choice(others))
    survivors = sorted(tree.hashes())
    for i in range(5):
        tree.add_raw(name_hash(f"late{i}"), rng.choice(survivors), HARDER_BITS)
    for h in tree.hashes():
        assert tree.chain_work(h) == path_work(tree, h)


def test_remove_root_rejected():
    tree, ids = make_tree([])
    with pytest.raises(TreeStructureError):
        tree.remove_subtree(ids["g"])


# -- breadth-first order --------------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_bfs_yields_subtree_parents_first_siblings_ascending(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, max_nodes=80)
    start = rng.choice(sorted(tree.hashes()))
    order = list(tree.bfs(start))
    subtree = set()
    stack = [start]
    while stack:
        h = stack.pop()
        subtree.add(h)
        stack.extend(tree.children(h))
    assert len(order) == len(subtree) and set(order) == subtree
    assert order[0] == start
    pos = {h: i for i, h in enumerate(order)}
    for h in order[1:]:
        assert pos[tree.parent(h)] < pos[h]
    # level by level; within a level by the parent's place, then by hash
    assert order == sorted(order, key=lambda h: (tree.height(h), pos.get(tree.parent(h), -1), h))
    assert list(tree.bfs()) == list(tree.bfs(tree.root))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_bfs_with_skip_is_the_whole_walk_filtered(seed):
    # The skip set may hold anything: hashes outside the tree, below or
    # beside `start`, `start` itself, and hashes whose parents it lacks.
    rng = random.Random(seed)
    tree = random_tree(rng, max_nodes=60)
    nodes = sorted(tree.hashes())
    start = rng.choice(nodes)
    if rng.random() < 0.5:
        share = rng.choice((0.1, 0.5, 0.9))
        skip = {h for h in nodes if rng.random() < share}
    else:  # closed under parents, as a requester's processed set is
        skip = set()
        for h in tree.bfs():
            if (tree.parent(h) is None or tree.parent(h) in skip) and rng.random() < 0.9:
                skip.add(h)
    skip = frozenset(skip | {name_hash("outside")})
    assert list(tree.bfs(start, skip)) == [h for h in tree.bfs(start) if h not in skip]


def test_bfs_roots_under_skipped_blocks_join_their_level_in_path_order():
    tree, ids = make_tree(
        [("a", "g"), ("b", "g"), ("a1", "a"), ("b1", "b"), ("a2", "a1"), ("b2", "b1")]
    )
    first, second = sorted((ids["a"], ids["b"]))
    name = {ids[n]: n for n in ids}
    lead = name[first]
    skip = frozenset({ids[lead], ids[lead + "1"]})
    order = [name[h] for h in tree.bfs(skip=skip)]
    # the skipped branch comes first at height 1, so its unskipped block leads height 3
    other = name[second]
    assert order == ["g", other, other + "1", lead + "2", other + "2"]


def test_kept_bodied_set_follows_bodies_and_removals(genesis_block):
    rng = random.Random(7)
    tree = random_tree(rng, max_nodes=30)
    for step in range(300):
        h = rng.choice(sorted(tree.hashes()))
        roll = rng.random()
        if roll < 0.4:
            tree.set_block(h, genesis_block)  # any body will do
        elif roll < 0.6:
            tree.drop_block(h)
        elif roll < 0.7 and h != tree.root:
            tree.remove_subtree(h)
        else:
            tree.add_raw(name_hash(f"n{step}"), h, EASY_BITS)
        assert tree.bodied() == {n for n in tree.hashes() if tree.has_block(n)}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_kept_index_follows_walks_inserts_bodies_and_removals(data):
    # Walks from random starts move the index's mark up and down between
    # inserts, removals and body changes; every skip walk must stay the
    # whole walk filtered, and the kept bodied set a scan of has_block.
    body = regtest_genesis_block()  # any body will do
    tree = BlockTree((name_hash("r0"), EASY_BITS))
    for step in range(data.draw(st.integers(1, 40))):
        nodes = sorted(tree.hashes())
        h = data.draw(st.sampled_from(nodes))
        op = data.draw(st.sampled_from(["add", "add", "add", "remove", "body", "drop", "walk"]))
        if op == "add":
            tree.add_raw(name_hash(f"n{step}"), h, EASY_BITS)
        elif op == "remove" and h != tree.root:
            tree.remove_subtree(h)
        elif op == "body":
            tree.set_block(h, body)
        elif op == "drop":
            tree.drop_block(h)
        elif op == "walk":
            skip = frozenset(data.draw(st.sets(st.sampled_from(nodes))) | {name_hash("outside")})
            assert list(tree.bfs(h, skip)) == [n for n in tree.bfs(h) if n not in skip]
        assert tree.bodied() == {n for n in tree.hashes() if tree.has_block(n)}
    start = data.draw(st.sampled_from(sorted(tree.hashes())))
    skip = frozenset(data.draw(st.sets(st.sampled_from(sorted(tree.hashes())))))
    assert list(tree.bfs(start, skip)) == [n for n in tree.bfs(start) if n not in skip]


def test_trees_that_never_skip_keep_no_index():
    tree = random_tree(random.Random(3), max_nodes=40)
    list(tree.bfs())
    list(tree.bfs(tree.root, frozenset()))
    assert tree._above is None
    list(tree.bfs(tree.root, frozenset({tree.root})))
    assert tree._above == set(tree.hashes()) - {tree.root}


def test_bodied_set_is_kept_until_the_bodies_change(genesis_block):
    tree, ids = two_fork_tree()
    tree.set_block(ids["a1"], genesis_block)
    kept = tree.bodied()
    tree.add_raw(name_hash("late"), ids["a3"], EASY_BITS)
    tree.drop_block(ids["b1"])  # held no body
    assert tree.bodied() is kept
    tree.set_block(ids["a2"], genesis_block)
    assert tree.bodied() == {ids["a1"], ids["a2"]} and tree.bodied() is not kept


def test_bfs_unknown_start_rejected():
    tree, _ = two_fork_tree()
    with pytest.raises(UnknownBlockError):
        list(tree.bfs(name_hash("absent")))


# -- uniqueness of stable blocks -----------------------------------------------------


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_at_most_one_delta_stable_block_per_height(seed):
    tree = random_tree(random.Random(seed), max_nodes=60)
    for height in tree.heights():
        nodes = tree.at_height(height)
        for delta in (1, 2, 3):
            stable = [h for h in nodes if tree.is_delta_stable(h, delta, CONF)]
            assert len(stable) <= 1


# -- dump / load -----------------------------------------------------------------


def test_dump_load_roundtrip():
    tree, ids = two_fork_tree()
    lines = tree.dump_lines()
    loaded = BlockTree.from_dump(lines)
    assert set(loaded.hashes()) == set(tree.hashes())
    for h in tree.hashes():
        assert loaded.height(h) == tree.height(h)
        assert loaded.bits(h) == tree.bits(h)
        assert loaded.stability(h, CONF) == tree.stability(h, CONF)
    assert loaded.current_chain() == tree.current_chain()


def test_dump_rejects_orphan():
    lines = [
        "blocktree 1",
        f"node {name_hash('g').rev_hex()} - 0 {EASY_BITS:08x} 0",
        f"node {name_hash('o').rev_hex()} {name_hash('missing').rev_hex()} 1 {EASY_BITS:08x} 0",
    ]
    with pytest.raises(TreeStructureError):
        BlockTree.from_dump(lines)


def test_dump_rejects_empty_and_bad_magic():
    with pytest.raises(TreeStructureError):
        BlockTree.from_dump([])
    with pytest.raises(TreeStructureError):
        BlockTree.from_dump(["something else"])


def test_dump_rejects_height_mismatch():
    lines = [
        "blocktree 1",
        f"node {name_hash('g').rev_hex()} - 0 {EASY_BITS:08x} 0",
        f"node {name_hash('c').rev_hex()} {name_hash('g').rev_hex()} 5 {EASY_BITS:08x} 0",
    ]
    with pytest.raises(TreeStructureError):
        BlockTree.from_dump(lines)


@pytest.mark.parametrize(
    "bits, error",
    [("00000000", "zero target"), ("01800000", "negative compact target"), ("-1", "bits out of range")],
)
@pytest.mark.parametrize("where", ["root", "child"])
def test_dump_bits_without_a_target_name_the_line(where, bits, error):
    root_bits = bits if where == "root" else f"{EASY_BITS:08x}"
    child_bits = bits if where == "child" else f"{EASY_BITS:08x}"
    lines = [
        "blocktree 1",
        f"node {name_hash('g').rev_hex()} - 0 {root_bits} 0",
        f"node {name_hash('c').rev_hex()} {name_hash('g').rev_hex()} 1 {child_bits} 0",
    ]
    lineno = 2 if where == "root" else 3
    with pytest.raises(TreeStructureError, match=f"^line {lineno}: bad bits {bits}: {error}"):
        BlockTree.from_dump(lines)


def test_dump_rejects_a_bad_parent_hash_a_repeated_node_and_a_bad_flag():
    root = f"node {name_hash('g').rev_hex()} - 0 {EASY_BITS:08x} 0"
    child = f"node {name_hash('c').rev_hex()} {name_hash('g').rev_hex()} 1 {EASY_BITS:08x} 0"
    with pytest.raises(TreeStructureError, match="^line 3: "):
        BlockTree.from_dump(["blocktree 1", root, child.replace(" 1 ", "0 1 ", 1)])
    with pytest.raises(TreeStructureError, match="^line 4: node listed twice"):
        BlockTree.from_dump(["blocktree 1", root, child, child])
    with pytest.raises(TreeStructureError, match="^line 3: has_block must be 0 or 1"):
        BlockTree.from_dump(["blocktree 1", root, child[:-1] + "2"])


DUMP_ODD_FIELDS = ["-", "0", "1", "-1", "x", "00000000", "01800000", "ffffffff", "1d00ffff", ""]


@st.composite
def mutated_dump(draw, lines: list[str]) -> list[str]:
    """The dump after one to three random edits."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "flip", "field", "truncate"]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "flip":
            digits = [k for k, c in enumerate(lines[i]) if c in "0123456789abcdef"]
            if digits:
                k = draw(st.sampled_from(digits))
                new = draw(st.sampled_from([c for c in "0123456789abcdef" if c != lines[i][k]]))
                lines[i] = lines[i][:k] + new + lines[i][k + 1 :]
        elif edit == "field":
            parts = lines[i].split(" ")
            k = draw(st.integers(0, len(parts) - 1))
            parts[k] = draw(st.sampled_from(DUMP_ODD_FIELDS) | st.integers(-(2**40), 2**40).map(str))
            lines[i] = " ".join(parts)
        else:
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
    return lines


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_dump_fails_closed_or_loads(data):
    tree, _ = make_tree(
        [("a1", "g"), ("a2", "a1"), ("b1", "g"), ("b2", "b1"), ("c2", "b1")],
        bits={"a2": HARDER_BITS},
    )
    lines = data.draw(mutated_dump(tree.dump_lines()))
    try:
        loaded = BlockTree.from_dump(lines)
    except TreeStructureError:
        return
    for h in loaded.hashes():
        parent = loaded.parent(h)
        assert parent is None or loaded.height(h) == loaded.height(parent) + 1
        loaded.stability(h, CONF)
    assert loaded.current_chain()[0] == loaded.root


def test_duplicate_insert_is_noop():
    tree, ids = make_tree([("a", "g")])
    before = len(tree)
    tree.add_raw(ids["a"], ids["g"], EASY_BITS)
    assert len(tree) == before


def test_workratio_comparisons():
    r = WorkRatio(7, 2)  # 3.5
    assert r >= 3
    assert r < 4
    assert float(r) == 3.5
    with pytest.raises(ValueError):
        WorkRatio(1, 0)
