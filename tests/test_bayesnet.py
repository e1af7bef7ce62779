import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glycast
from glycast import preprocess
from glycast.bayesnet import (
    _SCORE_EPS,
    _family_plan,
    _has_path,
    _in_name_order,
    _FamilyScores,
    ArcStrengthTable,
    BayesianNetworkModel,
    Dag,
    TabuParams,
    bic_score,
    bootstrap_consensus,
    cpts_to_json,
    fit_parameters,
    infer_markers,
    infer_posterior,
    load_arc_annotations,
    load_network_json,
    network_to_json,
    tabu_search,
)
from glycast.casts import write_json
from glycast.errors import CapacityError, InferenceError, RangeError, SchemaError
from glycast.preprocess import DiscreteDataset
from glycast.synth import (
    SynthConfig,
    bic_brute_force,
    dag_enumeration_oracle,
    enumerate_dags,
    gen_clinical,
    joint_enumeration_posterior,
    tabu_search_reference,
)


def dataset(columns, cards=None):
    columns = {k: np.asarray(v, dtype=np.int64) for k, v in columns.items()}
    names = tuple(columns)
    matrix = np.column_stack([columns[n] for n in names])
    if cards is None:
        cards = tuple(int(matrix[:, j].max()) + 1 for j in range(matrix.shape[1]))
    return DiscreteDataset(variables=names, cards=tuple(cards), matrix=matrix)


def chain_dataset(n, seed, flip=0.15, card=3):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, card, n)
    b = (a + (rng.random(n) < flip).astype(np.int64)) % card
    c = (b + (rng.random(n) < flip).astype(np.int64)) % card
    return dataset({"a": a, "b": b, "c": c}, cards=(card,) * 3)


class TestDag:
    def test_cycle_rejected(self):
        with pytest.raises(SchemaError, match="cycle"):
            Dag(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")}))

    def test_self_arc_rejected(self):
        with pytest.raises(SchemaError, match="self-arc"):
            Dag(("a",), frozenset({("a", "a")}))

    def test_parents_sorted(self):
        dag = Dag(("a", "b", "c"), frozenset({("c", "b"), ("a", "b")}))
        assert dag.parents_of("b") == ("a", "c")


class TestBicScore:
    def test_hand_computed_binary(self):
        data = dataset({"x": [0, 1]}, cards=(2,))
        dag = Dag(("x",))
        expected = 2 * math.log(0.5) - 0.5 * math.log(2)
        assert bic_score(dag, data) == pytest.approx(expected, abs=1e-12)
        assert bic_score(dag, data) == pytest.approx(-1.7328679513998632, abs=1e-12)

    def test_arc_between_independent_columns_scores_worse(self):
        rng = np.random.default_rng(0)
        data = dataset(
            {"x": rng.integers(0, 4, 1000), "y": rng.integers(0, 4, 1000)}, cards=(4, 4)
        )
        empty = Dag(("x", "y"))
        arc = Dag(("x", "y"), frozenset({("x", "y")}))
        assert bic_score(arc, data) < bic_score(empty, data)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        data = dataset(
            {
                "a": rng.integers(0, 3, 120),
                "b": rng.integers(0, 2, 120),
                "c": rng.integers(0, 4, 120),
                "d": rng.integers(0, 2, 120),
            }
        )
        for dag in (
            Dag(data.variables),
            Dag(data.variables, frozenset({("a", "b"), ("a", "c"), ("b", "d")})),
            Dag(data.variables, frozenset({("d", "a"), ("c", "a")})),
        ):
            assert bic_score(dag, data) == pytest.approx(bic_brute_force(dag, data), abs=1e-9)

    def test_unknown_node(self):
        data = dataset({"x": [0, 1]})
        with pytest.raises(SchemaError):
            bic_score(Dag(("x", "zz")), data)


class TestTabuSearch:
    def test_chain_recovery_matches_oracle(self):
        data = chain_dataset(2000, seed=0)
        found = tabu_search(data)
        oracle = dag_enumeration_oracle(data)
        assert found.skeleton() == oracle.skeleton()
        assert found.skeleton() == frozenset(
            {frozenset({"a", "b"}), frozenset({"b", "c"})}
        )

    def test_independent_columns_give_empty_graph(self):
        rng = np.random.default_rng(3)
        data = dataset(
            {n: rng.integers(0, 4, 2000) for n in ("x", "y", "z")}, cards=(4, 4, 4)
        )
        assert tabu_search(data).arcs == frozenset()

    def test_max_iter_zero_returns_empty(self):
        data = chain_dataset(500, seed=1)
        assert tabu_search(data, TabuParams(max_iter=0)).arcs == frozenset()

    @pytest.mark.parametrize("name, bad", [("tabu_len", 2.5), ("max_iter", 1.0), ("stall_limit", True)])
    def test_params_take_integers_as_they_are(self, name, bad):
        # TabuParams(tabu_len=2.5, stall_limit=True) was built without complaint.
        with pytest.raises(SchemaError, match=f"^{name} must be an integer"):
            TabuParams(**{name: bad})

    def test_score_at_least_empty_graph(self):
        for seed in range(4):
            data = chain_dataset(400, seed=seed, flip=0.4)
            found = tabu_search(data)
            assert bic_score(found, data) >= bic_score(Dag(data.variables), data) - 1e-9


@st.composite
def discrete_data(draw):
    """3-7 variables with cards 2-4 over 30-500 rows.

    Columns are independent noise, noisy functions of an earlier column, or
    exact copies of one; copies make score-equivalent ties. Names are drawn
    so that name order differs from column order.
    """
    n_vars = draw(st.integers(3, 7))
    n_rows = draw(st.integers(30, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = draw(st.permutations("abcdefg"))[:n_vars]
    columns, cards = [], []
    for j in range(n_vars):
        kind = draw(st.sampled_from(("noise", "child", "copy"))) if j else "noise"
        if kind == "copy":
            source = draw(st.integers(0, j - 1))
            columns.append(columns[source].copy())
            cards.append(cards[source])
            continue
        card = draw(st.integers(2, 4))
        column = rng.integers(0, card, n_rows)
        if kind == "child":
            parent = draw(st.integers(0, j - 1))
            mapped = rng.integers(0, card, cards[parent])[columns[parent]]
            keep = rng.random(n_rows) >= draw(st.floats(0.0, 0.6))
            column = np.where(keep, mapped, column)
        columns.append(column)
        cards.append(card)
    return DiscreteDataset(tuple(names), tuple(cards), np.column_stack(columns))


@st.composite
def row_multiplicities(draw, n_rows):
    """How often each of n_rows rows is drawn: Poisson counts, zeros among
    them, and up to three rows drawn thousands of times; never all zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.poisson(draw(st.sampled_from((0.3, 1.0, 3.0))), n_rows)
    counts[draw(st.lists(st.integers(0, n_rows - 1), max_size=3))] = draw(st.integers(1000, 20_000))
    counts[draw(st.integers(0, n_rows - 1))] += 1
    return counts


def copied(data, multiplicity):
    """The dataset whose rows are row i of `data` repeated multiplicity[i] times."""
    rows = np.repeat(np.arange(data.n_rows), multiplicity)
    return DiscreteDataset(data.variables, data.cards, data.matrix[rows])


@pytest.fixture(scope="module")
def clinical_data():
    records, _ = gen_clinical(SynthConfig(n_subjects=400, seed=5, missing_rate=0.05))
    kept, _ = preprocess.exclude_incomplete(records, 3)
    return preprocess.standardize_encode(preprocess.impute_means(kept), 4)


@pytest.fixture(scope="module")
def small_dags():
    """Every DAG over five nodes a-e."""
    return set(enumerate_dags(("a", "b", "c", "d", "e")))


def single_moves(dag):
    """Every DAG one arc addition, deletion or reversal away from `dag`."""
    for u, v in itertools.permutations(dag.nodes, 2):
        if (u, v) in dag.arcs:
            yield Dag(dag.nodes, dag.arcs - {(u, v)})
            arcs = (dag.arcs - {(u, v)}) | {(v, u)}
        elif (v, u) in dag.arcs:
            continue  # its moves come with the pair (v, u)
        else:
            arcs = dag.arcs | {(u, v)}
        try:
            neighbour = Dag(dag.nodes, arcs)
        except SchemaError:
            continue  # closes a cycle
        yield neighbour


class TestIncrementalTabuSearch:
    @given(
        discrete_data(),
        st.one_of(
            st.just(TabuParams()),
            # Short tabu lists make the best candidate tabu more often, so the
            # tie window must be taken below it.
            st.builds(
                TabuParams,
                tabu_len=st.integers(1, 10),
                max_iter=st.integers(0, 80),
                stall_limit=st.integers(1, 30),
            ),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_random_data(self, data, params):
        assert tabu_search(data, params).arcs == tabu_search_reference(data, params).arcs

    @given(rep=st.integers(0, 10_000))
    @settings(max_examples=5, deadline=None)
    def test_matches_reference_on_clinical_resamples(self, clinical_data, rep):
        rows = np.random.default_rng([5, rep]).integers(0, clinical_data.n_rows, clinical_data.n_rows)
        resample = DiscreteDataset(clinical_data.variables, clinical_data.cards, clinical_data.matrix[rows])
        found = tabu_search(resample)
        assert found.arcs  # the clinical variables are dependent
        assert found.arcs == tabu_search_reference(resample).arcs

    @given(discrete_data())
    @settings(max_examples=40, deadline=None)
    def test_no_single_move_improves_the_result(self, data):
        # Holds whenever the search stops on its stall limit, as it does long
        # before the default max_iter at these sizes: every visited structure
        # scored at most the best + _SCORE_EPS, and from the best DAG the
        # search would have taken any non-tabu move improving it by more.
        found = tabu_search(data)
        best = bic_score(found, data)
        for neighbour in single_moves(found):
            assert bic_score(neighbour, data) <= best + _SCORE_EPS

    @given(discrete_data(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_multiplicities_search_as_the_copied_rows(self, data, draws):
        counts = draws.draw(row_multiplicities(data.n_rows))
        ordered = _in_name_order(data)
        resample = _FamilyScores(ordered).resample(counts)
        assert tabu_search(ordered, _scores=resample).arcs == tabu_search(copied(data, counts)).arcs

    @given(discrete_data(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_column_order_does_not_change_the_search(self, data, draws):
        # Columns in any order search as in name order, the empty DAG's score summed in that order too;
        # data already in name order, as bootstrap_consensus hands them over, are searched uncopied.
        order = draws.draw(st.permutations(range(len(data.variables))))
        shuffled = DiscreteDataset(
            tuple(data.variables[c] for c in order), tuple(data.cards[c] for c in order), data.matrix[:, order]
        )
        ordered = _in_name_order(shuffled)
        assert ordered.variables == tuple(sorted(data.variables)) and _in_name_order(ordered) is ordered
        assert tabu_search(shuffled).arcs == tabu_search(ordered).arcs == tabu_search(data).arcs

    @pytest.mark.parametrize("length", range(3, 9))
    @pytest.mark.parametrize("seed", range(3))
    def test_best_add_closing_a_cycle_is_passed_over(self, length, seed):
        # Each node copies the one before it but for 5% noise, so every two
        # nodes of the chain are strongly dependent: once the chain is
        # oriented, an arc into its root from a node below it scores best of
        # all adds and would close a cycle.
        rng = np.random.default_rng([length, seed])
        card = 2 + seed % 2
        columns = [rng.integers(0, card, 400)]
        for _ in range(length - 1):
            noisy = rng.random(400) < 0.05
            columns.append(np.where(noisy, rng.integers(0, card, 400), columns[-1]))
        names = tuple(rng.permutation([f"x{j}" for j in range(length)]))
        data = DiscreteDataset(names, (card,) * length, np.column_stack(columns))
        found = tabu_search(data)
        assert found == tabu_search_reference(data)
        # At the DAG returned, the best-scoring add closes a cycle.
        scorer = _FamilyScores(data)
        children = {node: {v for u, v in found.arcs if u == node} for node in names}

        def add_delta(u, v):
            parents = found.parents_of(v)
            return scorer.family(v, tuple(sorted(parents + (u,)))) - scorer.family(v, parents)

        adds = [(u, v) for u, v in itertools.permutations(names, 2) if (u, v) not in found.arcs]
        best = max(adds, key=lambda arc: add_delta(*arc))
        assert _has_path(children, best[1], best[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_result_is_a_dag_of_the_enumeration(self, seed, small_dags):
        rng = np.random.default_rng([5, seed])
        columns = [rng.integers(0, 2, 300)]
        for _ in range(4):
            source = columns[rng.integers(0, len(columns))]
            columns.append(np.where(rng.random(300) < 0.1, rng.integers(0, 2, 300), source))
        data = DiscreteDataset(("a", "b", "c", "d", "e"), (2,) * 5, np.column_stack(columns))
        found = tabu_search(data)
        assert found in small_dags
        assert found == tabu_search_reference(data)

    def test_path_counts_past_64_nodes(self):
        # 66 binary nodes, each a noisy copy of an earlier one: past 64 nodes
        # the search counts paths in Python integers, with the same walk.
        rng = np.random.default_rng(66)
        columns = [rng.integers(0, 2, 40)]
        for j in range(1, 66):
            source = columns[rng.integers(0, j)]
            columns.append(np.where(rng.random(40) < 0.1, rng.integers(0, 2, 40), source))
        data = DiscreteDataset(tuple(f"v{j:02d}" for j in range(66)), (2,) * 66, np.column_stack(columns))
        params = TabuParams(max_iter=30)
        found = tabu_search(data, params)
        assert len(found.arcs) >= 20
        assert found == tabu_search_reference(data, params)

    def test_no_variables(self):
        data = DiscreteDataset((), (), np.zeros((5, 0), np.int64))
        assert tabu_search(data) == Dag(())

    def test_scores_over_other_data_refused(self):
        # The scorer must count the data searched, in name order: another dataset, or the same columns out of name
        # order, is refused.
        data = chain_dataset(50, seed=1)
        with pytest.raises(SchemaError):
            tabu_search(data, _scores=_FamilyScores(chain_dataset(50, seed=2)))
        shuffled = DiscreteDataset(("c", "a", "b"), data.cards, data.matrix[:, [2, 0, 1]])
        with pytest.raises(SchemaError):
            tabu_search(shuffled, _scores=_FamilyScores(shuffled))
        assert tabu_search(data, _scores=_FamilyScores(data)) == tabu_search(data)

    def test_bootstrap_independent_of_hash_seed(self):
        # Set iteration order of strings follows PYTHONHASHSEED; the search's
        # choices must not.
        script = (
            "import json\n"
            "import numpy as np\n"
            "from glycast.bayesnet import bootstrap_consensus\n"
            "from glycast.preprocess import DiscreteDataset\n"
            "rng = np.random.default_rng(12)\n"
            "cols = [rng.integers(0, 3, 400)]\n"
            "for _ in range(4):\n"
            "    flip = (rng.random(400) < 0.15).astype(np.int64)\n"
            "    cols.append((cols[-1] + flip) % 3)\n"
            "data = DiscreteDataset(('hba1c', 'fpg', 'ga', 'cr', 'egfr'), (3,) * 5, np.column_stack(cols))\n"
            "table, dag = bootstrap_consensus(data, b=10, threshold=0.6, seed=3)\n"
            "print(json.dumps([sorted(table.strengths.items()), sorted(dag.arcs)]))\n"
        )
        src = str(Path(glycast.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
            )
            assert done.returncode == 0, done.stderr
            outputs.append(json.loads(done.stdout))
        assert outputs[0] == outputs[1]
        assert outputs[0][1]  # the chain leaves a non-empty consensus


class TestBootstrapConsensus:
    @given(discrete_data(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_strengths_equal_searches_on_copied_resamples(self, data, b, seed):
        table, _ = bootstrap_consensus(data, b=b, threshold=0.5, seed=seed)
        counts = {}
        for rep in range(b):
            rows = np.random.default_rng([seed, rep]).integers(0, data.n_rows, data.n_rows)
            resample = DiscreteDataset(data.variables, data.cards, data.matrix[rows])
            for arc in tabu_search(resample).arcs:
                counts[arc] = counts.get(arc, 0) + 1
        assert table.strengths == {arc: count / b for arc, count in counts.items()}

    def test_b1_equals_single_search(self):
        data = chain_dataset(600, seed=2)
        table, consensus = bootstrap_consensus(data, b=1, threshold=0.85, seed=5)
        rng = np.random.default_rng([5, 0])
        rows = rng.integers(0, data.n_rows, data.n_rows)
        resample = DiscreteDataset(data.variables, data.cards, data.matrix[rows])
        expected = tabu_search(resample)
        assert consensus.arcs == expected.arcs
        assert set(table.strengths.values()) <= {0.0, 1.0}

    def test_unanimous_arc_retained(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 2, 800)
        b = (a + (rng.random(800) < 0.05).astype(np.int64)) % 2
        data = dataset({"a": a, "b": b}, cards=(2, 2))
        table, consensus = bootstrap_consensus(data, b=20, threshold=0.85, seed=1)
        assert len(consensus.arcs) == 1
        (arc,) = consensus.arcs
        assert table.strength(*arc) == 1.0

    def test_consensus_matches_retention_rule(self):
        # Independent recomputation of thresholding + direction resolution +
        # strength-descending cycle-free admission from the returned table.
        data = chain_dataset(300, seed=7, flip=0.35)
        threshold = 0.6
        table, consensus = bootstrap_consensus(data, b=30, threshold=threshold, seed=9)
        retained = {}
        for (u, v), s in table.strengths.items():
            if s < threshold:
                continue
            rev = table.strength(v, u)
            if rev >= threshold and (rev > s or (rev == s and (v, u) < (u, v))):
                continue
            retained[(u, v)] = s
        admitted = set()
        children = {n: set() for n in data.variables}

        def has_path(src, dst):
            stack, seen = [src], {src}
            while stack:
                node = stack.pop()
                if node == dst:
                    return True
                for child in children[node]:
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
            return False

        for (u, v), s in sorted(retained.items(), key=lambda kv: (-kv[1], kv[0])):
            if has_path(v, u):
                continue
            admitted.add((u, v))
            children[u].add(v)
        assert consensus.arcs == frozenset(admitted)

    def test_determinism(self):
        data = chain_dataset(300, seed=8)
        t1, c1 = bootstrap_consensus(data, b=10, threshold=0.85, seed=11)
        t2, c2 = bootstrap_consensus(data, b=10, threshold=0.85, seed=11)
        assert t1.strengths == t2.strengths and c1.arcs == c2.arcs

    def test_replicates_stay_independent(self, clinical_data):
        # The b searches share one plan table. Searches run alone, last
        # replicate first, each with a fresh table, must tally the same
        # strengths: nothing one search leaves behind changes another.
        b, seed, n = 6, 21, clinical_data.n_rows
        table, _ = bootstrap_consensus(clinical_data, b=b, threshold=0.85, seed=seed)
        counts = {}
        for rep in reversed(range(b)):
            rows = np.random.default_rng([seed, rep]).integers(0, n, n)
            resample = DiscreteDataset(clinical_data.variables, clinical_data.cards, clinical_data.matrix[rows])
            for arc in tabu_search(resample).arcs:
                counts[arc] = counts.get(arc, 0) + 1
        assert table.strengths == {arc: count / b for arc, count in counts.items()}
        assert set(table.strengths.values()) - {1.0}  # the replicates disagree somewhere

    def test_invalid_params(self):
        data = chain_dataset(100, seed=0)
        with pytest.raises(RangeError):
            bootstrap_consensus(data, b=0)
        with pytest.raises(RangeError):
            bootstrap_consensus(data, threshold=0.0)
        # b=True ran one replicate; b=2.0 and seed=1.5 raised a bare TypeError.
        for name, bad in (("b", True), ("b", 2.0), ("seed", 1.5), ("seed", False)):
            with pytest.raises(SchemaError, match=f"^{name} must be an integer"):
                bootstrap_consensus(data, **{name: bad})

    @pytest.mark.parametrize("bad", ["0.5", True, None])
    def test_threshold_takes_a_number(self, bad):
        # "0.5" raised a bare TypeError, and True was read as a threshold of 1.0.
        with pytest.raises(SchemaError, match="^threshold must be a number"):
            bootstrap_consensus(chain_dataset(100, seed=0), b=1, threshold=bad)


class TestFitParameters:
    @pytest.mark.parametrize("alpha", [-0.5, math.nan, math.inf])
    def test_alpha_must_be_finite_and_non_negative(self, alpha):
        # A NaN alpha made every CPT row uniform.
        data = dataset({"x": [1, 1, 1, 0]}, cards=(2,))
        with pytest.raises(RangeError, match="alpha must be finite and >= 0"):
            fit_parameters(Dag(("x",)), data, alpha=alpha)

    @pytest.mark.parametrize("bad", ["1", True, None])
    def test_alpha_takes_a_number(self, bad):
        # "1" raised a bare TypeError, and True was read as 1.0.
        data = dataset({"x": [1, 1, 1, 0]}, cards=(2,))
        with pytest.raises(SchemaError, match="^alpha must be a number"):
            fit_parameters(Dag(("x",)), data, alpha=bad)

    def test_single_binary_node_mle(self):
        data = dataset({"x": [1, 1, 1, 0]}, cards=(2,))
        model = fit_parameters(Dag(("x",)), data, alpha=0.0)
        assert model.cpts["x"][0, 1] == pytest.approx(0.75)

    def test_unseen_configuration_smoothing(self):
        # parent config (p=1) never observed; alpha=1 with card 4 -> uniform.
        data = dataset({"p": [0, 0, 0], "x": [0, 1, 2]}, cards=(2, 4))
        model = fit_parameters(Dag(("p", "x"), frozenset({("p", "x")})), data, alpha=1.0)
        np.testing.assert_allclose(model.cpts["x"][1], [0.25, 0.25, 0.25, 0.25])

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("parents", [("a", "c"), ("a", "b", "c")])
    def test_cpt_rows_in_first_parent_most_significant_order(self, parents, alpha):
        # Row r holds the parent configuration whose mixed-radix code is r, the first parent by name most
        # significant, with cells from a per-row dictionary count as synth.bic_brute_force counts. The columns are
        # out of name order and the cards unequal, and a = 1 never meets c = 3, so some rows are unseen.
        rng = np.random.default_rng([len(parents), int(alpha)])
        cards = {"m": 3, "c": 4, "b": 3, "a": 2}
        columns = {name: rng.integers(0, card, 80) for name, card in cards.items()}
        columns["c"][(columns["a"] == 1) & (columns["c"] == 3)] = 0
        data = dataset(columns, cards=tuple(cards.values()))
        model = fit_parameters(Dag(data.variables, frozenset((p, "m") for p in parents)), data, alpha=alpha)
        assert model.parent_order["m"] == parents
        counts = {}
        for row in data.matrix:
            cell = tuple(int(row[data.index_of(v)]) for v in parents + ("m",))
            counts[cell] = counts.get(cell, 0) + 1
        configs = list(itertools.product(*(range(cards[p]) for p in parents)))
        assert model.cpts["m"].shape == (len(configs), cards["m"])
        assert any(not any(counts.get(config + (k,)) for k in range(3)) for config in configs)  # an unseen row
        for config, row in zip(configs, model.cpts["m"].tolist()):
            cells = [counts.get(config + (k,), 0) + alpha for k in range(cards["m"])]
            total = sum(cells)
            assert row == ([c / total for c in cells] if total else [1 / cards["m"]] * cards["m"])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        data = dataset(
            {"a": rng.integers(0, 3, 50), "b": rng.integers(0, 4, 50), "c": rng.integers(0, 2, 50)}
        )
        dag = Dag(data.variables, frozenset({("a", "b"), ("c", "b")}))
        model = fit_parameters(dag, data)
        for node in dag.nodes:
            np.testing.assert_allclose(model.cpts[node].sum(axis=1), 1.0, atol=1e-9)


def random_model(seed, n_nodes=5, max_card=3, names=None):
    rng = np.random.default_rng(seed)
    names = names or tuple(f"v{i}" for i in range(n_nodes))
    n_nodes = len(names)
    cards = {n: int(rng.integers(2, max_card + 1)) for n in names}
    arcs = set()
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < 0.4:
                arcs.add((names[i], names[j]))
    dag = Dag(names, frozenset(arcs))
    cpts = {}
    parent_order = {}
    for node in names:
        parents = dag.parents_of(node)
        parent_order[node] = parents
        n_cfg = int(np.prod([cards[p] for p in parents])) if parents else 1
        raw = rng.gamma(1.0, 1.0, size=(n_cfg, cards[node])) + 1e-3
        cpts[node] = raw / raw.sum(axis=1, keepdims=True)
    from glycast.bayesnet import BayesianNetworkModel

    return BayesianNetworkModel(dag=dag, cards=cards, cpts=cpts, parent_order=parent_order)


class TestInference:
    def test_parents_evidence_returns_cpt_row(self):
        rng = np.random.default_rng(0)
        data = dataset(
            {"a": rng.integers(0, 2, 60), "b": rng.integers(0, 2, 60), "fpg": rng.integers(0, 4, 60)}
        )
        dag = Dag(data.variables, frozenset({("a", "fpg"), ("b", "fpg")}))
        model = fit_parameters(dag, data)
        post = infer_posterior(model, "fpg", {"a": 1, "b": 0})
        config = 1 * 2 + 0  # parent order (a, b), a most significant
        np.testing.assert_allclose(post, model.cpts["fpg"][config], atol=1e-12)

    def test_empty_evidence_matches_enumeration(self):
        for seed in range(5):
            model = random_model(seed)
            post = infer_posterior(model, "v3", {})
            oracle = joint_enumeration_posterior(model, "v3", {})
            np.testing.assert_allclose(post, oracle, atol=1e-9)

    def test_evidence_matches_enumeration(self):
        for seed in range(5):
            model = random_model(seed + 100, n_nodes=6)
            evidence = {"v0": 0, "v4": 1}
            post = infer_posterior(model, "v2", evidence)
            oracle = joint_enumeration_posterior(model, "v2", evidence)
            np.testing.assert_allclose(post, oracle, atol=1e-9)
            assert post.sum() == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_chain_point_mass(self):
        cpts = {
            "a": np.array([[0.25, 0.25, 0.25, 0.25]]),
            "fpg": np.eye(4),
        }
        from glycast.bayesnet import BayesianNetworkModel

        model = BayesianNetworkModel(
            dag=Dag(("a", "fpg"), frozenset({("a", "fpg")})),
            cards={"a": 4, "fpg": 4},
            cpts=cpts,
            parent_order={"a": (), "fpg": ("a",)},
        )
        post = infer_posterior(model, "fpg", {"a": 2})
        np.testing.assert_allclose(post, [0, 0, 1, 0], atol=1e-12)

    def test_contradictory_evidence(self):
        cpts = {
            "a": np.array([[1.0, 0.0]]),
            "b": np.array([[1.0, 0.0], [0.0, 1.0]]),
        }
        from glycast.bayesnet import BayesianNetworkModel

        model = BayesianNetworkModel(
            dag=Dag(("a", "b"), frozenset({("a", "b")})),
            cards={"a": 2, "b": 2},
            cpts=cpts,
            parent_order={"a": (), "b": ("a",)},
        )
        with pytest.raises(InferenceError):
            infer_posterior(model, "b", {"a": 1})

    def test_evidence_validation(self):
        model = random_model(1)
        with pytest.raises(RangeError):
            infer_posterior(model, "v0", {"v1": 99})
        with pytest.raises(SchemaError):
            infer_posterior(model, "v0", {"nope": 0})
        with pytest.raises(SchemaError):
            infer_posterior(model, "v0", {"v0": 0})

    def test_infer_markers_expectations(self):
        rng = np.random.default_rng(6)
        data = dataset(
            {
                "age": rng.integers(0, 4, 80),
                "fpg": rng.integers(0, 4, 80),
                "hpp2": rng.integers(0, 4, 80),
            }
        )
        dag = Dag(data.variables, frozenset({("age", "fpg"), ("fpg", "hpp2")}))
        model = fit_parameters(dag, data)
        fpg_post, hpp2_post, fpg_hat, hpp2_hat = infer_markers(model, {"age": 2})
        # No codecs on this dataset: representatives default to class indices.
        assert fpg_hat == pytest.approx(float(np.dot(fpg_post, np.arange(4))))
        assert hpp2_hat == pytest.approx(float(np.dot(hpp2_post, np.arange(4))))
        with pytest.raises(SchemaError):
            infer_markers(model, {"fpg": 1})


def disconnected_zero_model(evidence_on):
    """fpg -> hpp2, plus a -> b not connected to them, where b = a exactly.

    The returned evidence gives a value of probability zero: b=1 against a=0
    (both CPTs reduce to scalars), or a=1 alone (P(a=1) = 0).
    """
    cpts = {
        "fpg": np.array([[0.3, 0.7]]),
        "hpp2": np.array([[0.6, 0.4], [0.1, 0.9]]),
        "a": np.array([[1.0, 0.0]]),
        "b": np.eye(2),
    }
    from glycast.bayesnet import BayesianNetworkModel

    model = BayesianNetworkModel(
        dag=Dag(("a", "b", "fpg", "hpp2"), frozenset({("a", "b"), ("fpg", "hpp2")})),
        cards={name: 2 for name in cpts},
        cpts=cpts,
        parent_order={"a": (), "b": ("a",), "fpg": (), "hpp2": ("fpg",)},
    )
    return model, {"both": {"a": 0, "b": 1}, "root": {"a": 1}}[evidence_on]


class TestElimination:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_joint_enumeration(self, seed):
        rng = np.random.default_rng([13, seed])
        names = ["fpg", "hpp2"] + [f"v{i}" for i in range(1 + seed % 5)]  # 3-7 nodes
        model = random_model(seed, names=tuple(rng.permutation(names)))
        others = [v for v in model.dag.nodes if v not in ("fpg", "hpp2")]
        full = {v: int(rng.integers(model.cards[v])) for v in others}
        partial = {v: full[v] for v in others if rng.random() < 0.5}
        for evidence in ({}, partial, full):
            for target in model.dag.nodes:
                if target in evidence:
                    continue
                oracle = joint_enumeration_posterior(model, target, evidence)
                np.testing.assert_allclose(infer_posterior(model, target, evidence), oracle, rtol=0, atol=1e-12)
            fpg_post, hpp2_post, fpg_hat, hpp2_hat = infer_markers(model, evidence)
            for marker, post in (("fpg", fpg_post), ("hpp2", hpp2_post)):
                oracle = joint_enumeration_posterior(model, marker, evidence)
                np.testing.assert_allclose(post, oracle, rtol=0, atol=1e-12)
                np.testing.assert_allclose(post, infer_posterior(model, marker, evidence), rtol=0, atol=1e-12)
            assert fpg_hat == float(np.dot(fpg_post, model.representative_values("fpg")))
            assert hpp2_hat == float(np.dot(hpp2_post, model.representative_values("hpp2")))

    def test_evidence_outside_markov_blanket_leaves_markers_bit_identical(self):
        # Subjects whose Markov-blanket evidence agrees tie exactly in donor selection.
        checked = 0
        for seed in range(20):
            rng = np.random.default_rng([14, seed])
            model = random_model(seed, names=tuple(rng.permutation(["fpg", "hpp2", "v0", "v1", "v2", "v3"])))
            markers = {"fpg", "hpp2"}
            parents = {u for u, v in model.dag.arcs if v in markers}
            children = {v for u, v in model.dag.arcs if u in markers}
            blanket = parents | children | {u for u, v in model.dag.arcs if v in children}
            outside = [v for v in model.dag.nodes if v not in blanket | markers]
            if not outside:
                continue
            evidence = {v: int(rng.integers(model.cards[v])) for v in model.dag.nodes if v not in markers}
            moved = dict(evidence, **{v: (evidence[v] + 1) % model.cards[v] for v in outside})
            for got, want in zip(infer_markers(model, moved), infer_markers(model, evidence)):
                assert np.array_equal(got, want)
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("evidence_on", ["both", "root"])
    def test_zero_mass_away_from_markers_raises(self, evidence_on):
        model, evidence = disconnected_zero_model(evidence_on)
        with pytest.raises(InferenceError):
            infer_markers(model, evidence)
        with pytest.raises(InferenceError):
            infer_posterior(model, "fpg", evidence)
        consistent = {"a": 0, "b": 0}
        np.testing.assert_allclose(infer_markers(model, consistent)[0], [0.3, 0.7], atol=1e-15)


@pytest.fixture(scope="module")
def cohort_network():
    """The network Stage 1 would fit to a 1500-record cohort, and the encoded rows without the markers."""
    records, _ = gen_clinical(SynthConfig(n_subjects=1500, seed=5150, missing_rate=0.05))
    kept, _ = preprocess.exclude_incomplete(records, 3)
    data = preprocess.standardize_encode(preprocess.impute_means(kept), 4)
    model = fit_parameters(tabu_search(data), data, alpha=1.0)
    names = [v for v in data.variables if v not in ("fpg", "hpp2")]
    rows = [dict(zip(names, row)) for row in data.matrix[:, [data.variables.index(v) for v in names]].tolist()]
    return model, rows


class TestEliminationCache:
    def test_cached_results_equal_a_fresh_models(self, cohort_network):
        model, rows = cohort_network
        model = replace(model)
        rng = np.random.default_rng(8)
        for full in rows:
            partial = {v: k for v, k in full.items() if rng.random() < 0.6}
            target = str(rng.choice([v for v in model.dag.nodes if v not in partial]))
            for evidence in (full, partial):
                for got, want in zip(infer_markers(model, evidence), infer_markers(replace(model), evidence)):
                    assert np.array_equal(got, want)
            assert np.array_equal(
                infer_posterior(model, target, partial), infer_posterior(replace(model), target, partial)
            )
        # Almost every full row reused an elimination: the cache is what the test exercised.
        plan = model.eliminations[frozenset(rows[0])]
        assert len(plan.results) < len(rows) / 10

    def test_a_hit_returns_a_copy(self, cohort_network):
        model, rows = cohort_network
        first = infer_markers(model, rows[0])[0]
        first[:] = 0.0
        assert infer_markers(model, rows[0])[0].sum() == pytest.approx(1.0)

    def test_zero_mass_raises_on_a_cache_hit(self):
        # b copies a, so alpha=0 leaves P(b=1 | a=0) = 0; the markers see neither.
        data = dataset({"fpg": [0, 1, 1, 0], "hpp2": [0, 1, 0, 1], "a": [0, 1, 0, 1], "b": [0, 1, 0, 1]})
        model = fit_parameters(Dag(data.variables, frozenset({("fpg", "hpp2"), ("a", "b")})), data, alpha=0.0)
        infer_markers(model, {"a": 0, "b": 0})
        (plan,) = model.eliminations.values()
        assert plan.shared == () and list(plan.results) == [(("fpg", "hpp2"), ())]
        with pytest.raises(InferenceError, match="contradictory evidence"):
            infer_markers(model, {"a": 0, "b": 1})
        with pytest.raises(InferenceError, match="contradictory evidence"):
            infer_posterior(model, "fpg", {"a": 0, "b": 1})

    def test_invalid_evidence_raises_as_on_a_fresh_model(self, cohort_network):
        model, rows = cohort_network
        evidence = rows[0]
        infer_markers(model, evidence)
        infer_posterior(model, "fpg", evidence)
        variable = next(iter(evidence))
        cases = [
            (infer_markers, (dict(evidence, nope=0),), SchemaError),
            (infer_markers, (dict(evidence, **{variable: model.cards[variable]}),), RangeError),
            (infer_markers, (dict(evidence, **{variable: -1}),), RangeError),
            (infer_markers, (dict(evidence, fpg=0),), SchemaError),
            (infer_posterior, ("nope", evidence), SchemaError),
            (infer_posterior, (variable, evidence), SchemaError),
        ]
        for infer, args, error in cases:
            with pytest.raises(error) as warm:
                infer(model, *args)
            with pytest.raises(error) as fresh:
                infer(replace(model), *args)
            assert str(warm.value) == str(fresh.value)

    def test_replace_starts_an_empty_cache(self, cohort_network):
        model, rows = cohort_network
        infer_markers(model, rows[0])
        assert model.eliminations
        assert replace(model).eliminations == {}

    def test_cpts_are_read_only_copies(self):
        cpts = {"fpg": np.array([[0.3, 0.7]]), "hpp2": np.array([[0.6, 0.4], [0.1, 0.9]])}
        model = BayesianNetworkModel(
            dag=Dag(("fpg", "hpp2"), frozenset({("fpg", "hpp2")})),
            cards={"fpg": 2, "hpp2": 2},
            cpts=cpts,
            parent_order={"fpg": (), "hpp2": ("fpg",)},
        )
        cpts["fpg"][0] = [0.9, 0.1]
        assert model.cpts["fpg"].tolist() == [[0.3, 0.7]]
        for cpt in model.cpts.values():
            with pytest.raises(ValueError, match="read-only"):
                cpt[0, 0] = 0.5


class TestFamilyScores:
    @given(discrete_data(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_multiplicities_score_as_the_copied_rows(self, data, draws):
        counts = draws.draw(row_multiplicities(data.n_rows))
        n = len(data.variables)
        node = draws.draw(st.integers(0, n - 1))
        others = [u for u in range(n) if u != node]
        subsets = st.lists(st.sampled_from(others), max_size=min(3, len(others)), unique=True)
        sets = [tuple(sorted(subset)) for subset in draws.draw(st.lists(subsets, min_size=1, max_size=8))]
        weighted, copy = _FamilyScores(data, counts), _FamilyScores(copied(data, counts))
        assert weighted.families(node, sets) == copy.families(node, sets)
        resample = _FamilyScores(data).resample(counts)
        for scores in (weighted, resample):
            assert [np.asarray(a).tolist() for a in scores.neighbourhood(node, sets[0])] == [
                np.asarray(a).tolist() for a in copy.neighbourhood(node, sets[0])
            ]

    def test_multiplicities_checked(self):
        data = chain_dataset(10, seed=0)
        with pytest.raises(SchemaError):
            _FamilyScores(data, np.ones(9, np.int64))
        with pytest.raises(SchemaError, match="empty"):
            _FamilyScores(data, np.zeros(10, np.int64))

    def test_float32_codes_exact_below_the_bound(self):
        # Node 0 and 23 more binary columns: the family under parents 1..k has
        # 2**(k+1) cells, so k = 22 down to 0 fill 2**24 - 2 cells and one more
        # parentless family reaches 2**24.
        cards = np.full(24, 2, np.int64)
        sets = [tuple(range(1, k + 1)) for k in range(22, -1, -1)]
        plan = _family_plan(cards, 0, sets)
        assert plan.n_cells == 2**24 - 2
        assert plan.weights.dtype == np.float32
        with pytest.raises(CapacityError):
            _family_plan(cards, 0, sets + [()])
        matrix = np.random.default_rng(24).integers(0, 2, (63, 24))
        matrix = np.vstack((matrix, np.ones(24, np.int64)))  # the last cell of every family
        data = DiscreteDataset(tuple(f"v{j:02d}" for j in range(24)), tuple(cards), matrix)
        cells = _FamilyScores(data).cells(plan)
        exact = plan.weights.astype(np.int64) @ np.vstack((matrix.T, np.ones(64, np.int64)))
        assert exact.max() == plan.n_cells - 1
        assert np.array_equal(cells, np.bincount(exact.ravel(), minlength=plan.n_cells))

    @given(discrete_data(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_score_independent_of_batch(self, data, draws):
        n = len(data.variables)
        node = draws.draw(st.integers(0, n - 1))
        others = [u for u in range(n) if u != node]
        subsets = st.lists(st.sampled_from(others), max_size=min(3, len(others)), unique=True)
        by_name = data.variables.__getitem__
        sets = [
            tuple(sorted(subset, key=by_name))
            for subset in draws.draw(st.lists(subsets, min_size=1, max_size=12))
        ]
        batch = _FamilyScores(data).families(node, sets)
        alone = [_FamilyScores(data).families(node, [ps])[0] for ps in sets]
        assert batch == alone
        order = draws.draw(st.permutations(range(len(sets))))
        shuffled = _FamilyScores(data).families(node, [sets[i] for i in order])
        assert [shuffled[order.index(j)] for j in range(len(sets))] == batch
        named = [_FamilyScores(data).family(by_name(node), tuple(map(by_name, ps))) for ps in sets]
        assert named == batch

    @given(discrete_data(), discrete_data(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_neighbourhood_plan_is_the_one_scoring_path(self, data, other, draws):
        # A neighbourhood is f(v, own), f(v, own+u) at each non-parent u and f(v, own-u) - f(v, own) at each
        # parent u, -inf elsewhere, to the bit as `families` scores them; a resample reads the same plans, and
        # a plan is read-only.
        n = len(data.variables)
        node = draws.draw(st.integers(0, n - 1))
        own = tuple(sorted(draws.draw(
            st.lists(st.sampled_from([u for u in range(n) if u != node]), max_size=3, unique=True)
        )))
        others = [u for u in range(n) if u != node and u not in own]

        def expected(scores):
            base = scores.families(node, [own])[0]
            add, drop = np.full(n, -np.inf), np.full(n, -np.inf)
            add[others] = scores.families(node, [tuple(sorted(own + (u,))) for u in others])
            drop[list(own)] = np.array(scores.families(node, [tuple(p for p in own if p != u) for u in own])) - base
            return [base, add.tolist(), drop.tolist()]

        def answered(scores):
            base, add, drop = scores.neighbourhood(node, own)
            return [base, add.tolist(), drop.tolist()]

        scores = _FamilyScores(data)
        assert answered(scores) == expected(_FamilyScores(data))
        assert scores.neighbourhood(node, own) is scores.neighbourhood(node, own)
        counts = np.resize(other.matrix[:, 0], data.n_rows)
        counts[0] += 1  # never all zero
        resample = scores.resample(counts)
        assert resample._neighbourhood_plans is scores._neighbourhood_plans
        assert answered(resample) == expected(_FamilyScores(data, counts))
        plan = _family_plan(np.asarray(data.cards), node, [own])
        for array in (plan.weights, plan.cell_starts, plan.config_starts, plan.half_k):
            with pytest.raises(ValueError):
                array[0] = 0


class TestSerialization:
    def test_network_json_round_trip(self, tmp_path):
        dag = Dag(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
        strengths = ArcStrengthTable({("a", "b"): 0.92, ("b", "c"): 1.0})
        path = tmp_path / "net.json"
        write_json(path, network_to_json(dag, strengths, {("a", "b"): "causal"}))
        payload = json.loads(path.read_text())
        assert payload["nodes"] == ["a", "b", "c"]
        assert payload["arcs"][0] == {"from": "a", "to": "b", "strength": 0.92, "type": "causal"}
        back_dag, back_strengths = load_network_json(path)
        assert back_dag.arcs == dag.arcs
        assert back_strengths.strength("a", "b") == 0.92
        # A node name holding a comma and quotes, and strengths at the float edges that [0, 1] admits.
        name = 'fpg, "fasting"'
        strengths = {(name, "b"): 5e-324, ("b", "c"): 0.1 + 0.2, ("c", "d"): -0.0}
        dag = Dag((name, "b", "c", "d"), frozenset(strengths))
        write_json(path, network_to_json(dag, ArcStrengthTable(strengths)))
        back_dag, back_strengths = load_network_json(path)
        assert back_dag == dag
        assert repr(sorted(back_strengths.strengths.items())) == repr(sorted(strengths.items()))

    def test_cpts_json_shape(self):
        data = dataset({"a": [0, 1, 0, 1], "b": [0, 0, 1, 1]}, cards=(2, 2))
        model = fit_parameters(Dag(data.variables, frozenset({("a", "b")})), data)
        payload = cpts_to_json(model)
        assert payload["b"]["parents"] == ["a"]
        assert len(payload["b"]["table"]) == 2

    def test_annotations(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("from,to,category\na,b,causal\nb,c,correlated\n", encoding="utf-8")
        annotations = load_arc_annotations(path)
        assert annotations[("a", "b")] == "causal"

        data = dataset({"a": [0, 1, 0, 1], "b": [0, 0, 1, 1], "c": [1, 0, 1, 0]}, cards=(2, 2, 2))
        model = fit_parameters(Dag(data.variables, frozenset({("a", "b")})), data)
        annotated = replace(model, annotations={("a", "b"): "causal"})
        assert annotated.annotations[("a", "b")] == "causal"
        with pytest.raises(SchemaError, match="absent arc"):
            replace(model, annotations={("b", "c"): "causal"})
        with pytest.raises(SchemaError, match="category"):
            replace(model, annotations={("a", "b"): "mystery"})
        bad = tmp_path / "bad.csv"
        bad.write_text("from,to,category\na,b,mystery\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="category"):
            load_arc_annotations(bad)

    def test_annotations_skip_blank_lines_and_refuse_blank_cells(self, tmp_path):
        # A blank line raised "row 1 is incomplete"; every other CSV reader skips it.
        path = tmp_path / "ann.csv"
        path.write_text("From,to,category\na,b,causal\n\n b , c ,correlated\n", encoding="utf-8")
        assert load_arc_annotations(path) == {("a", "b"): "causal", ("b", "c"): "correlated"}
        for rows in ("a,b\n", "a,,causal\n", " ,b,causal\n"):
            path.write_text("from,to,category\n" + rows, encoding="utf-8")
            with pytest.raises(SchemaError, match="row 0 is incomplete") as caught:
                load_arc_annotations(path)
            assert str(caught.value).startswith(f"{path}: ")
