import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfrec import data as dt


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# parsing


def test_parse_ml1m_first_ratings_line(tmp_path):
    path = write(tmp_path / "ratings.dat", "1::1193::5::978300760\n")
    interactions, users, items = dt.parse_ml1m(path)
    assert interactions == [dt.Interaction(user=0, item=0, timestamp=978300760)]
    assert users.to_raw(0) == 1 and items.to_raw(0) == 1193


def test_parse_ml1m_empty_file(tmp_path):
    interactions, users, items = dt.parse_ml1m(write(tmp_path / "empty.dat", ""))
    assert interactions == [] and len(users) == 0 and len(items) == 0


def test_parse_ml1m_any_rating_counts_as_click(tmp_path):
    text = "".join(f"1::{100 + k}::{k + 1}::{1000 + k}\n" for k in range(5))
    interactions, _, _ = dt.parse_ml1m(write(tmp_path / "r.dat", text))
    assert len(interactions) == 5


def test_parse_ml1m_malformed_line_reports_line_number(tmp_path):
    path = write(tmp_path / "bad.dat", "1::2::3::4\n1::2::3\n")
    with pytest.raises(dt.ParseError, match=":2:"):
        dt.parse_ml1m(path)
    path = write(tmp_path / "bad2.dat", "1::2::3::4\n\nx::2::3::4\n")
    with pytest.raises(dt.ParseError, match=":3:"):
        dt.parse_ml1m(path)


def test_parse_ml1m_dense_reindex_is_sorted_and_bijective(tmp_path):
    path = write(tmp_path / "r.dat", "9::30::1::5\n4::20::1::6\n9::10::1::7\n")
    _, users, items = dt.parse_ml1m(path)
    assert users.dense_to_raw == [4, 9]
    assert items.dense_to_raw == [10, 20, 30]
    for dense in range(len(items)):
        assert items.to_dense(items.to_raw(dense)) == dense


def test_parse_tsv_with_and_without_kind_column(tmp_path):
    path = write(tmp_path / "t.tsv", "# comment\n5\t7\t100\n5\t8\t101\tclick\n")
    interactions, users, items = dt.parse_tsv(path)
    assert [(it.item, it.timestamp) for it in interactions] == [(0, 100), (1, 101)]
    assert len(users) == 1 and len(items) == 2
    # no caller reads exposures from files, so an exposure row is an error, not a dropped row
    exposure = write(tmp_path / "e.tsv", "# comment\n5\t7\t100\n5\t8\t101\texposure\n")
    with pytest.raises(dt.ParseError, match=":3: interaction kind 'exposure'"):
        dt.parse_tsv(exposure)


def test_parse_tsv_rejects_unknown_kind_and_bad_width(tmp_path):
    with pytest.raises(dt.ParseError, match="kind"):
        dt.parse_tsv(write(tmp_path / "a.tsv", "1\t2\t3\tviewed\n"))
    with pytest.raises(dt.ParseError, match=":1:"):
        dt.parse_tsv(write(tmp_path / "b.tsv", "1\t2\n"))


def test_parse_ml1m_non_utf8_bytes_raise_parse_error_naming_the_line(tmp_path):
    path = tmp_path / "r.dat"
    path.write_bytes(b"1::10::5::100\n\xff\xfe::11::4::101\n")
    with pytest.raises(dt.ParseError, match=r"r\.dat:2: not UTF-8"):
        dt.parse_ml1m(path)


def test_parse_tsv_non_utf8_bytes_raise_parse_error_naming_the_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"1\t10\t100\n\xff\xfe\t11\t101\n")
    with pytest.raises(dt.ParseError, match=r"bad\.tsv:2: not UTF-8"):
        dt.parse_tsv(path)


def test_group_by_user_sorts_by_timestamp_with_file_order_ties():
    interactions = [
        dt.Interaction(1, 10, 100),
        dt.Interaction(1, 11, 50),
        dt.Interaction(1, 12, 100),  # same ts as first: file order wins
        dt.Interaction(2, 13, 10),
    ]
    grouped = dt.group_by_user(interactions)
    assert [it.item for it in grouped[1]] == [11, 10, 12]
    assert [it.item for it in grouped[2]] == [13]


# ---------------------------------------------------------------------------
# three-phase split


def cluster_split(seed=0):
    return dt.phase_split(dt.make_cluster_dataset(seed=seed))


def test_split_user_with_exactly_twenty_clicks():
    interactions = [dt.Interaction(0, i, i) for i in range(20)]
    # give every item 20 clicks so the item floor holds
    for extra in range(1, 20):
        interactions += [dt.Interaction(extra, i, i) for i in range(20)]
    split = dt.phase_split(interactions)
    us = split.users[0]
    assert (len(us.slow), len(us.fast), len(us.test)) == (10, 5, 5)
    assert us.slow == list(range(10))
    assert us.fast == list(range(10, 15))
    assert us.test == list(range(15, 20))


def test_split_user_with_nineteen_clicks_is_excluded():
    interactions = []
    for u in range(20):
        interactions += [dt.Interaction(u, i, i) for i in range(20)]
    interactions += [dt.Interaction(99, i, i) for i in range(19)]
    split = dt.phase_split(interactions)
    assert 99 not in split.users
    assert split.dropped_users == 1


def test_split_filter_cascade_runs_to_fixpoint():
    # users 0..19 click items 0..19; users 0..18 additionally click item 21.
    # user 20 clicks items 0..17 plus the once-clicked item 20 and item 21.
    # pass 1 drops item 20 (count 1), which drops user 20 below the floor;
    # pass 2 then drops item 21 (19 clicks left), shrinking users 0..18 to
    # exactly the floor.
    interactions = []
    for u in range(20):
        interactions += [dt.Interaction(u, i, i) for i in range(20)]
    for u in range(19):
        interactions.append(dt.Interaction(u, 21, 20))
    interactions += [dt.Interaction(20, i, i) for i in range(18)]
    interactions.append(dt.Interaction(20, 20, 18))
    interactions.append(dt.Interaction(20, 21, 19))

    split = dt.phase_split(interactions)
    assert sorted(split.users) == list(range(20))
    assert split.dropped_users == 1
    assert split.retained_items == set(range(20))
    for us in split.users.values():
        assert us.all_items() == list(range(20))


def test_split_partitions_the_ordered_sequence():
    interactions = dt.make_cluster_dataset(seed=3)
    split = dt.phase_split(interactions)
    grouped = dt.group_by_user(interactions)
    assert len(split.users) == 200
    for user, us in split.users.items():
        full = [it.item for it in grouped[user]]
        assert us.all_items() == full
        assert (len(us.fast), len(us.test)) == (5, 5)


def test_split_temporal_soundness():
    interactions = dt.make_cluster_dataset(seed=4)
    split = dt.phase_split(interactions)
    grouped = dt.group_by_user(interactions)
    for user, us in split.users.items():
        ts = {it.item: it.timestamp for it in grouped[user]}
        slow_max = max(ts[i] for i in us.slow)
        fast_ts = [ts[i] for i in us.fast]
        test_ts = [ts[i] for i in us.test]
        assert slow_max <= min(fast_ts) and max(fast_ts) <= min(test_ts)


def test_split_vocab_size_covers_all_retained_ids():
    split = cluster_split()
    assert split.vocab_size == 100
    assert max(split.retained_items) < split.vocab_size


# ---------------------------------------------------------------------------
# negative sampling


def draw_all(split, n_items, n_train_neg=1, n_eval_neg=100, seed=0):
    """Every training and test position's negatives, drawn through NegativeSampler.

    Returns (train, eval) dicts: train maps (user, phase, position) to an id
    array; eval maps (user, test position) to that position's negative ids.
    """
    sampler = dt.NegativeSampler(split, n_items, seed)
    train, evals = {}, {}
    for user in sorted(split.users):
        us = split.users[user]
        for phase, seq in (("slow", us.slow), ("fast", us.fast)):
            for idx in range(len(seq)):
                train[(user, phase, idx)] = sampler.draw(user, phase, idx, n_train_neg)
        for idx in range(len(us.test)):
            evals[(user, idx)] = sampler.draw(user, "test", idx, n_eval_neg)
    return train, evals


def test_negatives_are_deterministic_given_seed():
    split = cluster_split()
    a_train, a_eval = draw_all(split, 100, n_eval_neg=50, seed=11)
    b_train, b_eval = draw_all(split, 100, n_eval_neg=50, seed=11)
    assert a_train.keys() == b_train.keys()
    for key in a_train:
        np.testing.assert_array_equal(a_train[key], b_train[key])
    for key in a_eval:
        np.testing.assert_array_equal(a_eval[key], b_eval[key])
    c_train, _ = draw_all(split, 100, n_eval_neg=50, seed=12)
    assert any(not np.array_equal(a_train[k], c_train[k]) for k in a_train)


def test_negatives_never_hit_the_users_history():
    split = cluster_split(seed=5)
    sampler = dt.NegativeSampler(split, 100, seed=13)
    checked = 0
    for user in sorted(split.users):
        clicked = set(split.users[user].all_items())
        for idx in range(5):
            for item in sampler.draw(user, "test", idx, 50):
                assert item not in clicked
                checked += 1
        if checked >= 10_000:
            break
    assert checked >= 10_000


def test_eval_negatives_are_distinct_and_complete_101_candidates():
    split = cluster_split(seed=6)
    _, evals = draw_all(split, 100, n_eval_neg=75, seed=14)
    user = next(iter(split.users))
    for idx in range(5):
        negs = evals[(user, idx)]
        positive = split.users[user].test[idx]
        assert len(negs) == 75
        assert len(set(negs.tolist())) == 75
        assert positive not in negs
    # only 75 unseen items exist per user on this corpus, so the draw caps there
    candidates = [split.users[user].test[0], *evals[(user, 0)].tolist()]
    assert len(candidates) == 76


def test_sampler_is_call_order_independent():
    split = cluster_split(seed=7)
    user = sorted(split.users)[3]
    s1 = dt.NegativeSampler(split, 100, seed=15)
    s2 = dt.NegativeSampler(split, 100, seed=15)
    first = s1.draw(user, "slow", 2, 1)
    s2.draw(user, "fast", 0, 1)
    s2.draw(user, "test", 4, 10)
    np.testing.assert_array_equal(s2.draw(user, "slow", 2, 1), first)


def test_a_repeated_draw_returns_the_memoised_values():
    split = cluster_split(seed=7)
    user = sorted(split.users)[2]
    sampler = dt.NegativeSampler(split, 100, seed=15)
    first = sampler.draw(user, "slow", 4, 3).copy()
    sampler.draw(user, "slow", 5, 3)
    np.testing.assert_array_equal(sampler.draw(user, "slow", 4, 3), first)


def test_a_draw_cannot_be_written():
    split = cluster_split(seed=7)
    sampler = dt.NegativeSampler(split, 100, seed=15)
    drawn = sampler.draw(sorted(split.users)[0], "test", 1, 5)
    assert not drawn.flags.writeable
    with pytest.raises(ValueError):
        drawn[0] = -1


def test_draws_do_not_depend_on_the_order_of_requests():
    split = cluster_split(seed=7)
    users = sorted(split.users)[:3]
    # index 7 lies past the 5-item fast and test phases: the memo grows its fast table
    keys = [(u, phase, j, n) for u in users for phase, j, n in
            [("slow", 1, 1), ("slow", 3, 1), ("fast", 2, 4), ("fast", 7, 4), ("test", 0, 10), ("test", 7, 10),
             ("test", 0, 2)]]
    forward = dt.NegativeSampler(split, 100, seed=15)
    backward = dt.NegativeSampler(split, 100, seed=15)
    drawn = {key: forward.draw(*key) for key in keys}
    for key in reversed(keys):
        np.testing.assert_array_equal(backward.draw(*key), drawn[key])


def test_table_rows_are_uniform_over_the_unseen_items():
    split = cluster_split(seed=9)
    user = sorted(split.users)[1]
    sampler = dt.NegativeSampler(split, 100, seed=17)
    pool = sampler.complement(user)
    table = sampler.table(user, "slow", 3, rows=20_000)
    assert table.shape == (20_000, 3)
    # chi-square over the 75 unseen items (74 degrees of freedom, SD about 12), for every draw and
    # for each row's first, as key order makes it a uniform draw of one
    for drawn in (table, table[:, 0]):
        counts = np.bincount(np.searchsorted(pool, drawn.ravel()), minlength=pool.size)
        expected = drawn.size / pool.size
        assert ((counts - expected) ** 2 / expected).sum() < 74 + 6 * 12.2


def test_table_rows_are_distinct_and_never_clicked():
    split = cluster_split(seed=9)
    sampler = dt.NegativeSampler(split, 100, seed=18)
    for user in sorted(split.users)[:20]:
        clicked = set(split.users[user].all_items())
        for phase, n in (("slow", 1), ("fast", 7), ("test", 50)):
            table = sampler.table(user, phase, n)
            assert table.shape == (len(getattr(split.users[user], phase)), n)
            assert all(len(set(row)) == n for row in table.tolist())
            assert not clicked.intersection(table.ravel().tolist())


def test_a_grown_table_keeps_its_first_rows():
    split = cluster_split(seed=9)
    user = sorted(split.users)[4]
    sampler = dt.NegativeSampler(split, 100, seed=19)
    first = sampler.table(user, "fast", 4).copy()
    assert len(first) == 5
    sampler.draw(user, "fast", 7, 4)  # a position past the 5-item phase grows the table
    grown = sampler.table(user, "fast", 4)
    assert len(grown) == 8
    np.testing.assert_array_equal(grown[:5], first)


@pytest.mark.parametrize("block", [1, 75, 150, 1_000])
def test_a_table_filled_in_blocks_of_rows_draws_what_one_block_would(monkeypatch, block):
    split = cluster_split(seed=9)
    user = sorted(split.users)[4]
    whole = dt.NegativeSampler(split, 100, seed=22).table(user, "slow", 3, rows=40)
    monkeypatch.setattr(dt, "_KEY_BLOCK", block)  # 75 unseen items: a row, a row, two rows, 13 rows at a time
    np.testing.assert_array_equal(dt.NegativeSampler(split, 100, seed=22).table(user, "slow", 3, rows=40), whole)


def test_a_table_can_take_every_unseen_item_or_none():
    split = cluster_split(seed=9)
    user = sorted(split.users)[5]
    sampler = dt.NegativeSampler(split, 100, seed=20)
    pool = sampler.complement(user)
    whole = sampler.table(user, "test", pool.size)
    assert whole.shape == (5, pool.size)
    for row in whole:
        np.testing.assert_array_equal(np.sort(row), pool)
    assert len({tuple(row) for row in whole.tolist()}) == 5  # each row its own order
    for phase in ("slow", "test"):
        empty = sampler.table(user, phase, 0)
        assert empty.shape == (len(getattr(split.users[user], phase)), 0) and empty.dtype == np.int64
        assert sampler.draw(user, phase, 2, 0).shape == (0,)


def test_test_tables_are_drawn_anew_and_not_kept():
    split = cluster_split(seed=9)
    user = sorted(split.users)[6]
    sampler = dt.NegativeSampler(split, 100, seed=21)
    first = sampler.table(user, "test", 10)
    again = sampler.table(user, "test", 10)
    assert first is not again
    np.testing.assert_array_equal(first, again)
    np.testing.assert_array_equal(sampler.draw(user, "test", 3, 10), first[3])
    assert not first.flags.writeable
    sampler.table(user, "slow", 10)
    assert [key for key in sampler._tables] == [(user, "slow", 10)]


def test_sampler_rejects_oversized_draws():
    split = cluster_split(seed=8)
    sampler = dt.NegativeSampler(split, 100, seed=16)
    user = next(iter(split.users))
    with pytest.raises(ValueError, match="negatives"):
        sampler.draw(user, "test", 0, 76)  # only 75 unseen items exist


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=2 * n))))
def test_complement_is_setdiff_of_the_clicked_items(case):
    n_items, clicks = case
    split = dt.PhaseSplit(users={0: dt.UserSplit(slow=clicks, fast=[], test=[])}, vocab_size=n_items)
    sampler = dt.NegativeSampler(split, n_items, seed=0)
    want = np.setdiff1d(np.arange(n_items, dtype=np.int64), np.asarray(clicks, dtype=np.int64))
    if not want.size:
        with pytest.raises(ValueError, match="clicked every item"):
            sampler.complement(0)
        return
    got = sampler.complement(0)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# exposure simulation


def test_exposures_zero_k_is_empty():
    out = dt.simulate_exposures(lambda ids: np.ones(len(ids)), np.arange(50), expose_k=0)
    assert out == []


def test_exposures_rank_by_score_then_id():
    scores = {0: 0.1, 1: 0.9, 2: 0.9, 3: 0.5, 4: 0.2, 5: 0.05}
    out = dt.simulate_exposures(lambda ids: np.array([scores[i] for i in ids]), np.array([5, 4, 3, 2, 1, 0]), expose_k=3)
    assert out == [1, 2, 3]


# ---------------------------------------------------------------------------
# synthetic clusters


def test_cluster_dataset_shape_and_determinism():
    a = dt.make_cluster_dataset(seed=9)
    b = dt.make_cluster_dataset(seed=9)
    assert a == b
    assert len(a) == 200 * 25
    by_user = dt.group_by_user(a)
    assert len(by_user) == 200
    block = {it.item // 25 for it in by_user[7]}
    assert block == {7 % 4}


def test_cluster_dataset_rejects_uneven_blocks():
    with pytest.raises(ValueError):
        dt.make_cluster_dataset(n_items=10, n_clusters=3)
