"""Frequency, genealogical backoff, geographic backoff, and kNN imputers."""

import functools
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from typoimpute.geo import haversine_km
from typoimpute.kb import OBSERVED_CODE, DatasetError, serialize_dataset

from typoimpute.imputers import (
    EnsembleImputer,
    GenusFamilyBackoffImputer,
    GeoBackoffImputer,
    GlobalFrequencyImputer,
    Answers,
    NearestNeighborImputer,
    fill_dataset,
    build_imputer,
    load_language_vectors,
)
from typoimpute.imputers.base import by_target, decide

import oracles
from oracles import (
    genus_family_oracle,
    geo_backoff_oracle,
    global_mode_oracle,
    great_circle_km,
    knn_oracle,
    observed_maps,
)
from synth import (Answer, Cell, answer_map, answers_of, blank_some, build_dataset, cells_of,
                   language_of, make_language, observed_of, predict_one, predictions_of,
                   random_dataset)


def _answer(pred):
    """Value and confidence of a prediction, as the oracles give them."""
    return None if pred is None else (pred.value, pred.confidence)


def test_decide_contract():
    values = ["SOV", "SVO"]
    counts = np.array([[5, 3], [2, 2], [0, 0], [0, 4]])
    # values are sorted, so a tie goes to the lexicographically smaller
    # one; a row without mass gets no answer
    got = decide(np.array([10, 11, 12, 13]), values, counts, ("s",))
    assert answer_map(got) == {
        10: Answer("SOV", 0.625, "s"), 11: Answer("SOV", 0.5, "s"), 13: Answer("SVO", 1.0, "s")}
    assert (got.names, got.labels) == (("SOV", "SVO"), ("s",))
    assert [a.dtype for a in (got.cell, got.value, got.confidence, got.source)] == \
        [np.intp, np.intp, np.float64, np.intp]
    assert len(decide(np.array([], dtype=np.intp), ["a"], np.zeros((0, 1)), ("s",))) == 0
    # one source code per row
    got = decide(np.array([3, 4]), values, np.array([[1, 0], [0, 1]]),
                 ("knn-agreement", "knn-vector"), np.array([True, False]))
    assert answer_map(got) == {3: Answer("SOV", 1.0, "knn-vector"),
                               4: Answer("SVO", 1.0, "knn-agreement")}
    # the argmax reads the scores even where the mass rounds them level
    raw = np.array([[1e-20, 2e-20]])
    mass = np.exp(raw - raw.max(axis=1, keepdims=True))
    assert mass.tolist() == [[1.0, 1.0]]
    assert answer_map(decide(np.array([7]), values, raw, ("ridge",), mass=mass)) == {
        7: Answer("SVO", 0.5, "ridge")}


def test_answers_join_offsets_names_and_labels():
    """Each part's value and source codes move past the names and labels
    of the parts before it; no part, or only empty ones, join to none."""
    first = decide(np.array([5, 2]), ["a", "b"], np.array([[0, 1], [1, 0]]), ("x", "y"),
                   np.array([1, 0]))
    second = decide(np.array([9]), ["c", "d", "e"], np.array([[0, 0, 4]]), ("z",))
    joined = Answers.join([first, second])
    assert joined.cell.tolist() == [5, 2, 9]
    assert (joined.names, joined.labels) == (("a", "b", "c", "d", "e"), ("x", "y", "z"))
    assert answer_map(joined) == {5: Answer("b", 1.0, "y"), 2: Answer("a", 1.0, "x"),
                                  9: Answer("e", 1.0, "z")}
    for parts in ([], [decide(np.array([1]), ["a"], np.zeros((1, 1)), ("x",))]):
        none = Answers.join(parts)
        assert len(none) == 0 and none.cell.dtype == np.intp and none.confidence.dtype == float


def test_global_frequency_spec_example():
    languages = [make_language(f"l{i:02d}") for i in range(8)]
    cells = {}
    for i, lang in enumerate(languages):
        value = "SOV" if i < 5 else "SVO"
        cells[(lang.code, "81A Order")] = Cell.observed(value)
    train = build_dataset(languages, cells)
    imp = GlobalFrequencyImputer()
    imp.fit(train)
    query = (make_language("new"), {}, "81A Order")
    pred = predict_one(imp, *query)
    assert pred == Answer(value="SOV", confidence=0.625, source="global")


def test_global_frequency_matches_oracle():
    rng = random.Random(60)
    for trial in range(30):
        train = random_dataset(rng, n_languages=rng.randint(2, 15))
        imp = GlobalFrequencyImputer()
        imp.fit(train)
        for target in train.features():
            want = global_mode_oracle(train, target)
            query = (make_language("zzz"), {}, target)
            if want is None:
                assert predict_one(imp, *query) is None
                continue
            pred = predict_one(imp, *query)
            assert (pred.value, pred.confidence) == want


def test_global_frequency_unknown_feature():
    rng = random.Random(61)
    train = random_dataset(rng, n_languages=5)
    imp = GlobalFrequencyImputer()
    imp.fit(train)
    assert predict_one(imp, make_language("zzz"), {}, "no such feature") is None


def test_genus_family_levels():
    languages = [
        make_language("aa1", genus="GenA", family="FamX"),
        make_language("aa2", genus="GenA", family="FamX"),
        make_language("ab1", genus="GenB", family="FamX"),
        make_language("ac1", genus="GenC", family="FamY"),
    ]
    cells = {
        ("aa1", "f"): Cell.observed("x"),
        ("ab1", "f"): Cell.observed("y"),
        ("ac1", "f"): Cell.observed("z"),
    }
    train = build_dataset(languages, cells)
    imp = GenusFamilyBackoffImputer()
    imp.fit(train)

    # genus level: GenA observes {x: 1}
    pred = predict_one(imp, make_language("q01", genus="GenA", family="FamX"), {}, "f")
    assert (pred.value, pred.confidence, pred.source) == ("x", 1.0, "genus")

    # family level: GenZ unseen, FamX observes {x: 1, y: 1} -> lexicographic
    pred = predict_one(imp, make_language("q02", genus="GenZ", family="FamX"), {}, "f")
    assert (pred.value, pred.confidence, pred.source) == ("x", 0.5, "family")

    # global level
    pred = predict_one(imp, make_language("q03", genus="GenQ", family="FamQ"), {}, "f")
    assert pred.source == "global"
    assert pred.value == "x"


def test_genus_family_matches_oracle():
    rng = random.Random(62)
    for trial in range(30):
        train = random_dataset(rng, n_languages=rng.randint(2, 15))
        imp = GenusFamilyBackoffImputer()
        imp.fit(train)
        for code in train.codes():
            lang = language_of(train, code)
            for target in train.features():
                want = genus_family_oracle(train, lang, target)
                query = (lang, {}, target)
                if want is None:
                    assert predict_one(imp, *query) is None
                    continue
                pred = predict_one(imp, *query)
                assert (pred.value, pred.confidence, pred.source) == want


def _geo_fixture():
    """Distinct genera/families so only geography can answer."""
    languages = [
        make_language("qqq", genus="GenQ", family="FamQ", lat=0.0, lon=0.0),
        # ~111 km away, observes target
        make_language("nr1", genus="GenN1", family="FamN1", lat=1.0, lon=0.0),
        # ~222 km away, observes target
        make_language("nr2", genus="GenN2", family="FamN2", lat=2.0, lon=0.0),
        # ~1111 km away, family partner below
        make_language("fr1", genus="GenF", family="FamF", lat=10.0, lon=0.0),
        make_language("fr2", genus="GenF2", family="FamF", lat=50.0, lon=50.0),
    ]
    cells = {
        ("nr1", "f"): Cell.observed("near1"),
        ("nr2", "f"): Cell.observed("near2"),
        ("fr1", "f"): Cell.observed("far1"),
        ("fr2", "f"): Cell.observed("far2"),
        ("qqq", "g"): Cell.observed("other"),
        ("nr1", "g"): Cell.observed("other"),
    }
    return build_dataset(languages, cells)


def test_geo_backoff_neighborhood_mode():
    train = _geo_fixture()
    imp = GeoBackoffImputer(near_km=500.0, far_km=2000.0)
    imp.fit(train)
    pred = predict_one(imp, language_of(train, "qqq"), {}, "f")
    # two holders within 500 km, tie broken lexicographically
    assert pred.value == "near1"
    assert pred.source == "neighborhood"
    assert pred.confidence == 0.5


def test_geo_backoff_nearest_family():
    train = _geo_fixture()
    imp = GeoBackoffImputer(near_km=50.0, far_km=2000.0)
    imp.fit(train)
    pred = predict_one(imp, language_of(train, "qqq"), {}, "f")
    # nobody within 50 km; nearest holder within 2000 km is nr1 (FamN1),
    # whose family holds only {near1}
    assert (pred.value, pred.source) == ("near1", "nearest-family")


def test_geo_backoff_family_mode_spans_family():
    languages = [
        make_language("qqq", genus="GenQ", family="FamQ", lat=0.0, lon=0.0),
        make_language("fr1", genus="GenF", family="FamF", lat=10.0, lon=0.0),
        make_language("fr2", genus="GenF2", family="FamF", lat=50.0, lon=50.0),
        make_language("fr3", genus="GenF3", family="FamF", lat=55.0, lon=55.0),
    ]
    cells = {
        ("fr1", "f"): Cell.observed("a"),
        ("fr2", "f"): Cell.observed("b"),
        ("fr3", "f"): Cell.observed("b"),
        ("qqq", "g"): Cell.observed("x"),
    }
    train = build_dataset(languages, cells)
    imp = GeoBackoffImputer(near_km=100.0, far_km=3000.0)
    imp.fit(train)
    pred = predict_one(imp, language_of(train, "qqq"), {}, "f")
    # nearest holder fr1 belongs to FamF; mode over all FamF holders is b
    assert (pred.value, pred.source) == ("b", "nearest-family")
    assert pred.confidence == pytest.approx(2 / 3)


def test_geo_backoff_falls_back_to_global():
    train = _geo_fixture()
    imp = GeoBackoffImputer(near_km=10.0, far_km=20.0)
    imp.fit(train)
    pred = predict_one(imp, language_of(train, "qqq"), {}, "f")
    assert pred.source == "global"
    assert pred.value == "far1"  # lexicographic among four singleton counts


def test_geo_backoff_prefers_genus_family():
    languages = [
        make_language("qqq", genus="GenQ", family="FamQ", lat=0.0, lon=0.0),
        make_language("sib", genus="GenQ", family="FamQ", lat=40.0, lon=40.0),
        make_language("nbr", genus="GenN", family="FamN", lat=0.5, lon=0.0),
    ]
    cells = {
        ("sib", "f"): Cell.observed("genusval"),
        ("nbr", "f"): Cell.observed("nearval"),
    }
    train = build_dataset(languages, cells)
    imp = GeoBackoffImputer(near_km=1000.0, far_km=2000.0)
    imp.fit(train)
    pred = predict_one(imp, language_of(train, "qqq"), {}, "f")
    # the genealogical levels outrank the neighborhood
    assert (pred.value, pred.source) == ("genusval", "genus")


def test_geo_backoff_radii_are_inclusive():
    """A holder exactly at ``near_km`` (or ``far_km``) counts, with the
    distance from the same kernel as ``haversine_km``."""
    train = _geo_fixture()
    here = language_of(train, "qqq")

    def km(code):
        return haversine_km(here, language_of(train, code))

    def predict(near_km, far_km):
        return predict_one(GeoBackoffImputer(near_km, far_km).fit(train), here, {}, "f")

    pred = predict(km("nr1"), km("nr1"))
    assert (pred.value, pred.source, pred.confidence) == ("near1", "neighborhood", 1.0)
    pred = predict(0.0, km("nr1"))
    assert (pred.value, pred.source) == ("near1", "nearest-family")
    just_short = float(np.nextafter(km("nr1"), 0))
    assert predict(0.0, just_short).source == "global"


def test_geo_backoff_matches_oracle():
    rng = random.Random(63)
    for trial in range(20):
        train = random_dataset(
            rng,
            n_languages=rng.randint(3, 12),
            singleton_genera=True,
            p_observed=0.5,
            min_observed=0,
        )
        near = rng.choice([300.0, 1000.0])
        far = rng.choice([1500.0, 4000.0])
        imp = GeoBackoffImputer(near_km=near, far_km=far)
        imp.fit(train)
        for code in train.codes():
            lang = language_of(train, code)
            for target in train.features():
                want = geo_backoff_oracle(train, lang, target, near, far)
                query = (lang, {}, target)
                if want is None:
                    assert predict_one(imp, *query) is None
                    continue
                pred = predict_one(imp, *query)
                assert (pred.value, pred.source) == (want[0], want[2])
                assert pred.confidence == pytest.approx(want[1])


def _ring_edge_fixture():
    """Training languages around a query point at (10, 20), each alone
    in its genus: for ``f``, two holders at exactly the same distance,
    the later code first in row order, and the earlier code's family
    holding another value twice far away; for ``g`` and ``h``, holders
    at distances the float kernel and the oracle compute alike; and a
    training language ``sss`` with a holder of ``f`` nearby in its own
    family."""
    place = [
        ("bbb", "FamB", 10.0, 25.0, {"f": "x"}),
        ("aaa", "FamA", 10.0, 15.0, {"f": "y"}),
        ("aa2", "FamA", -40.0, 100.0, {"f": "z"}),
        ("aa3", "FamA", -45.0, 110.0, {"f": "z"}),
        ("ccc", "FamC", 14.0, 20.0, {"g": "u"}),
        ("ddd", "FamD", 18.0, 20.0, {"g": "w", "h": "d"}),
        ("dd2", "FamD", -60.0, -100.0, {"h": "e"}),
        ("sss", "FamT", 40.0, -60.0, {"f": "own"}),
        ("ttt", "FamT", 40.0, -58.0, {"f": "t"}),
    ]
    languages = [make_language(code, genus=f"Gen-{code}", family=family, lat=lat, lon=lon)
                 for code, family, lat, lon, _ in place]
    cells = {(code, feature): Cell.observed(value)
             for code, _, _, _, observed in place for feature, value in observed.items()}
    return build_dataset(languages, cells)


def test_geo_backoff_matches_oracle_at_ring_edges():
    """Exact distance ties, holders exactly at ``near_km`` and at
    ``far_km``, a query that is a training language under other genus
    and family names, and a query with no holder within ``far_km``."""
    train = _ring_edge_fixture()
    here = make_language("qqq", genus="GenQ", family="FamQ", lat=10.0, lon=20.0)
    own = replace(language_of(train, "sss"), genus="GenR", family="FamR")

    def km(code):
        """The kernel's and the oracle's distance from ``here``."""
        other = language_of(train, code)
        return (haversine_km(here, other),
                great_circle_km(here.latitude, here.longitude, other.latitude, other.longitude))

    assert km("aaa") == km("bbb")
    # the oracle compares the same radius
    (at_c, exact_c), (at_d, exact_d) = km("ccc"), km("ddd")
    assert (at_c, at_d) == (exact_c, exact_d)
    below = functools.partial(np.nextafter, 0.0)
    cases = [
        (here, 100.0, 1000.0, {"f": ("z", "nearest-family")}),
        (here, at_c, at_c, {"g": ("u", "neighborhood")}),
        (here, float(below(at_c)), at_c, {"g": ("u", "nearest-family")}),
        (here, 0.0, at_d, {"h": ("d", "nearest-family")}),
        (here, 0.0, float(below(at_d)), {"h": ("d", "global")}),
        (own, 500.0, 500.0, {"f": ("t", "neighborhood")}),
        (own, 0.0, 500.0, {"f": ("t", "nearest-family")}),
        (here, 10.0, 100.0, {"f": ("z", "global"), "g": ("u", "global")}),
    ]
    for query, near, far, expected in cases:
        imp = GeoBackoffImputer(near_km=near, far_km=far).fit(train)
        for target in train.features():
            want = geo_backoff_oracle(train, query, target, near, far)
            pred = predict_one(imp, query, {}, target)
            assert (pred.value, pred.confidence, pred.source) == want, (query.code, near, far)
            if target in expected:
                assert (pred.value, pred.source) == expected[target], (query.code, near, far)


def _backoff_benchmark_data(rng, n_languages=300, n_features=10, n_queries=40):
    """A few hundred training languages: a third in 25 shared genera
    (five families), a third alone in their genus but in 30 shared
    families, a third alone in genus and family.  Half of them sit at
    one of 100 shared sites, so many lie at identical coordinates, and
    codes are shuffled against row order, so a tie on distance is
    decided by code, not by row.  Queries are training languages, some
    of them under other genus and family names, and new languages in
    known and unseen genera and families, half at a site."""
    sites = [(rng.uniform(-60, 60), rng.uniform(-170, 170)) for _ in range(100)]

    def place():
        return sites[rng.randrange(len(sites))] if rng.random() < 0.5 else (
            rng.uniform(-60, 60), rng.uniform(-170, 170))

    codes = [f"l{i:03d}" for i in range(n_languages)]
    rng.shuffle(codes)
    languages, cells = [], {}
    for i, code in enumerate(codes):
        if i % 3 == 0:
            g = rng.randrange(25)
            genus, family = f"G{g}", f"F{g % 5}"
        elif i % 3 == 1:
            genus, family = f"Gen-{code}", f"SF{rng.randrange(30)}"
        else:
            genus, family = f"Gen-{code}", f"Fam-{code}"
        lat, lon = place()
        languages.append(make_language(code, genus=genus, family=family, lat=lat, lon=lon))
        for j in range(n_features):
            if rng.random() < 0.3:
                cells[(code, f"f{j}")] = Cell.observed(f"v{min(rng.randrange(5), 3)}")
    train = build_dataset(languages, cells)

    queries = rng.sample(languages, n_queries // 4)
    # a training code under other metadata: its own row must not count
    queries += [replace(lang, genus=f"GenR{i}", family=f"FamR{i}")
                for i, lang in enumerate(rng.sample(languages, n_queries // 8))]
    for j in range(n_queries - len(queries)):
        kind = j % 4
        genus = f"G{rng.randrange(25)}" if kind == 0 else f"GenQ{j}"
        family = f"SF{rng.randrange(30)}" if kind == 1 else f"FamQ{j}"
        lat, lon = place()
        queries.append(make_language(f"q{j:03d}", genus=genus, family=family, lat=lat, lon=lon))
    return train, queries


def test_genus_family_matches_oracle_at_benchmark_size():
    rng = random.Random(64)
    train, queries = _backoff_benchmark_data(rng, n_queries=120)
    imp = GenusFamilyBackoffImputer().fit(train)
    sources = Counter()
    for lang in queries:
        for target in train.features():
            want = genus_family_oracle(train, lang, target)
            pred = predict_one(imp, lang, {}, target)
            assert (pred.value, pred.confidence, pred.source) == want
            sources[pred.source] += 1
    assert min(sources[s] for s in ("genus", "family", "global")) > 50


def test_geo_backoff_matches_oracle_at_benchmark_size(monkeypatch):
    rng = random.Random(65)
    train, queries = _backoff_benchmark_data(rng)
    # the oracle asks for each pair again per target and radius
    monkeypatch.setattr(oracles, "great_circle_km", functools.lru_cache(None)(great_circle_km))
    obs = observed_maps(train)
    sources = Counter()
    code_decided = 0
    for near, far in ((1000.0, 2000.0), (300.0, 1500.0), (0.0, 2500.0)):
        imp = GeoBackoffImputer(near_km=near, far_km=far).fit(train)
        for lang in queries:
            for target in train.features():
                want = geo_backoff_oracle(train, lang, target, near, far)
                pred = predict_one(imp, lang, {}, target)
                assert (pred.value, pred.confidence, pred.source) == want
                sources[pred.source] += 1
                if pred.source == "nearest-family":
                    code_decided += _nearest_decided_by_code(train, obs, lang, target, far)
    assert min(sources[s] for s in ("neighborhood", "nearest-family", "global")) > 20
    assert code_decided > 5


def _nearest_decided_by_code(train, obs, lang, target, far):
    """Whether the nearest holders within ``far`` tie on distance across
    more than one family."""
    holders = [
        (oracles.great_circle_km(lang.latitude, lang.longitude, other.latitude, other.longitude),
         other.family)
        for other in train.languages
        if other.code != lang.code and target in obs[other.code]
    ]
    within = [(d, family) for d, family in holders if d <= far]
    if not within:
        return False
    best = min(d for d, _ in within)
    return len({family for d, family in within if d == best}) > 1


def test_knn_vector_mode_exact_match():
    vectors = {
        "aaa": (1.0, 0.0),
        "bbb": (0.0, 1.0),
        "qqq": (1.0, 0.0),
    }
    languages = [make_language("aaa"), make_language("bbb")]
    cells = {
        ("aaa", "f"): Cell.observed("va"),
        ("bbb", "f"): Cell.observed("vb"),
    }
    train = build_dataset(languages, cells)
    imp = NearestNeighborImputer(k=1, vectors=vectors)
    imp.fit(train)
    pred = predict_one(imp, make_language("qqq"), {}, "f")
    assert (pred.value, pred.confidence, pred.source) == ("va", 1.0, "knn-vector")


def test_knn_majority_among_k():
    vectors = {
        "aa1": (1.0, 0.0),
        "aa2": (0.9, 0.1),
        "bb1": (0.8, 0.2),
        "qqq": (1.0, 0.0),
    }
    languages = [make_language("aa1"), make_language("aa2"), make_language("bb1")]
    cells = {
        ("aa1", "f"): Cell.observed("A"),
        ("aa2", "f"): Cell.observed("A"),
        ("bb1", "f"): Cell.observed("B"),
    }
    train = build_dataset(languages, cells)
    imp = NearestNeighborImputer(k=3, vectors=vectors)
    imp.fit(train)
    pred = predict_one(imp, make_language("qqq"), {}, "f")
    assert pred.value == "A"
    assert pred.confidence == pytest.approx(2 / 3)


def test_knn_agreement_fallback_when_no_vectors():
    languages = [
        make_language("sim", lat=10.0, lon=10.0),
        make_language("dif", lat=-10.0, lon=-10.0),
    ]
    cells = {
        ("sim", "f"): Cell.observed("match"),
        ("sim", "g"): Cell.observed("1"),
        ("sim", "h"): Cell.observed("2"),
        ("dif", "f"): Cell.observed("clash"),
        ("dif", "g"): Cell.observed("9"),
        ("dif", "h"): Cell.observed("9"),
    }
    train = build_dataset(languages, cells)
    imp = NearestNeighborImputer(k=1)
    imp.fit(train)
    query = (make_language("qqq"), {"g": "1", "h": "2"}, "f")
    pred = predict_one(imp, *query)
    assert (pred.value, pred.source) == ("match", "knn-agreement")


def test_knn_agreement_fallback_when_query_has_no_vector():
    vectors = {"sim": (1.0, 0.0), "dif": (0.0, 1.0)}
    languages = [
        make_language("sim", lat=10.0, lon=10.0),
        make_language("dif", lat=-10.0, lon=-10.0),
    ]
    cells = {
        ("sim", "f"): Cell.observed("match"),
        ("sim", "g"): Cell.observed("1"),
        ("dif", "f"): Cell.observed("clash"),
        ("dif", "g"): Cell.observed("9"),
    }
    train = build_dataset(languages, cells)
    imp = NearestNeighborImputer(k=1, vectors=vectors)
    imp.fit(train)
    # query code absent from the vector table: agreement distance applies
    pred = predict_one(imp, make_language("qqq"), {"g": "1"}, "f")
    assert (pred.value, pred.source) == ("match", "knn-agreement")


def test_knn_matches_oracle():
    """Vector-route answers equal the exhaustive oracle's.  After ten
    trials of uniform components, the components are discrete, so that
    distances tie exactly at the k-th place, and the training rows run
    against code order, so that only the code breaks those ties; about a
    quarter of the training languages have no vector, one has a zero
    vector, and every third query has a zero vector too."""
    rng = random.Random(64)
    zero = (0.0, 0.0, 0.0)
    for trial in range(40):
        train = random_dataset(rng, n_languages=rng.randint(3, 12))
        codes = train.codes()
        if trial < 10:
            vectors = {code: tuple(rng.uniform(-1, 1) for _ in range(4))
                       for code in codes + ["qry"]}
        else:
            train = build_dataset(train.languages[::-1], cells_of(train))
            vectors = {code: tuple(rng.choice((-1.0, 0.0, 1.0)) for _ in range(3))
                       for code in codes + ["qry"] if code == "qry" or rng.random() < 0.75}
            vectors[rng.choice(codes)] = zero
            if trial % 3 == 0:
                vectors["qry"] = zero
        k = rng.choice([1, 3, 5])
        imp = NearestNeighborImputer(k=k, vectors=vectors)
        imp.fit(train)
        qlang = make_language("qry", lat=rng.uniform(-60, 60), lon=rng.uniform(-170, 170))
        for target in train.features():
            observed = {}
            want = knn_oracle(train, qlang, observed, target, k, vectors=vectors)
            query = (qlang, observed, target)
            assert _answer(predict_one(imp, *query)) == want


def test_knn_answers_do_not_depend_on_the_batch():
    """A test language's knn answers are the same when it is filled alone
    as when it is filled with the whole test set, by vector (Gaussian
    components, a zero vector on each side, a fifth without one) and by
    agreement."""
    rng = random.Random(68)
    data = random_dataset(rng, n_languages=80, n_features=6, p_observed=0.7, min_observed=3)
    codes = data.codes()
    train, test = data.subset(codes[:50]), blank_some(data.subset(codes[50:]), rng, 3)
    vectors = {code: np.array([rng.gauss(0.0, 1.0) for _ in range(16)])
               for code in codes if rng.random() < 0.8}
    vectors[codes[0]] = vectors[codes[60]] = np.zeros(16)
    imp = NearestNeighborImputer(k=3, vectors=vectors).fit(train)
    assert {p.source for p in predictions_of(imp, test).values()} == \
        {"knn-vector", "knn-agreement"}
    together = cells_of(fill_dataset(imp, test))
    for code in test.codes():
        alone = cells_of(fill_dataset(imp, test.subset([code])))
        assert alone == {key: cell for key, cell in together.items() if key[0] == code}


def test_knn_agreement_matches_oracle():
    rng = random.Random(65)
    for trial in range(10):
        train = random_dataset(rng, n_languages=rng.randint(3, 12))
        k = rng.choice([1, 3])
        imp = NearestNeighborImputer(k=k)
        imp.fit(train)
        for code in train.codes():
            qlang = language_of(train, code)
            full = dict(observed_of(train, code))
            for target in train.features():
                observed = {f: v for f, v in full.items() if f != target}
                want = knn_oracle(train, qlang, observed, target, k)
                query = (qlang, observed, target)
                assert _answer(predict_one(imp, *query)) == want


def _tied_train(same_place):
    """Six languages that all agree with the query on "g" and differ in
    "f": every agreement distance is 0, so geography (or, at one shared
    place, the code) decides."""
    languages, cells = [], {}
    for i, code in enumerate(["e", "c", "a", "f", "b", "d"]):
        lat, lon = (10.0, 20.0) if same_place else (10.0 + 3 * i, 20.0 - 2 * i)
        languages.append(make_language(code, lat=lat, lon=lon))
        cells[(code, "g")] = Cell.observed("1")
        cells[(code, "f")] = Cell.observed(f"v{i % 3}")
    return build_dataset(languages, cells)


def _count_distance_rows(monkeypatch):
    """Rows of every distance kernel call made by knn."""
    from typoimpute.imputers import knn

    rows = []
    real = knn.distance_matrix
    monkeypatch.setattr(knn, "distance_matrix", lambda a, b: rows.append(len(a)) or real(a, b))
    return rows


@pytest.mark.parametrize("same_place", [False, True], ids=["distinct", "identical"])
@pytest.mark.parametrize("k", [1, 3])
def test_knn_agreement_ties_match_oracle(monkeypatch, same_place, k):
    rows = _count_distance_rows(monkeypatch)
    train = _tied_train(same_place)
    imp = NearestNeighborImputer(k=k).fit(train)
    for lat, lon in [(10.0, 20.0), (25.0, 10.0), (-40.0, 100.0)]:
        qlang = make_language("q", lat=lat, lon=lon)
        query = (qlang, {"g": "1"}, "f")
        want = knn_oracle(train, qlang, {"g": "1"}, "f", k)
        assert _answer(predict_one(imp, *query)) == want
        assert _answer(predict_one(imp, *query)) == want  # from the imputer's cache
    # every query language ties, and gets one distance row
    assert rows == [1, 1, 1]


def test_knn_calls_haversine_only_for_ties(monkeypatch):
    rows = _count_distance_rows(monkeypatch)
    languages = [make_language(c, lat=float(i), lon=0.0) for i, c in enumerate("abc")]
    cells = {}
    for code, g, h in [("a", "1", "1"), ("b", "1", "0"), ("c", "0", "0")]:
        cells[(code, "g")] = Cell.observed(g)
        cells[(code, "h")] = Cell.observed(h)
        cells[(code, "f")] = Cell.observed(code)
    imp = NearestNeighborImputer(k=2).fit(build_dataset(languages, cells))
    query = (make_language("q"), {"g": "1", "h": "1"}, "f")
    assert predict_one(imp, *query).value == "a"  # distances 0, 0.5, 1: no tie at place 2
    assert rows == []


def test_knn_neighbourhood_follows_observed_map():
    languages = [make_language(c) for c in ("near_g", "near_h")]
    cells = {
        ("near_g", "g"): Cell.observed("1"), ("near_g", "h"): Cell.observed("0"),
        ("near_g", "f"): Cell.observed("a"),
        ("near_h", "g"): Cell.observed("0"), ("near_h", "h"): Cell.observed("1"),
        ("near_h", "f"): Cell.observed("b"),
    }
    train = build_dataset(languages, cells)
    imp = NearestNeighborImputer(k=1).fit(train)
    qlang = make_language("q", lat=5.0, lon=5.0)
    got = []
    for observed in ({"g": "1"}, {"h": "1"}, {"g": "1"}):
        got.append(predict_one(imp, qlang, observed, "f").value)
        assert (got[-1], 1.0) == knn_oracle(train, qlang, observed, "f", 1)
    assert got == ["a", "b", "a"]


def test_knn_ties_match_oracle_on_random_data():
    rng = random.Random(66)
    places = [(0.0, 0.0), (0.0, 0.0), (10.0, 10.0), (-20.0, 40.0)]
    for trial in range(20):
        train = random_dataset(rng, n_languages=rng.randint(5, 25), n_features=4,
                               n_values=2, p_observed=0.6, min_observed=1)
        # few places, some shared, so geography often ties as well
        languages = [
            make_language(lang.code, lat=places[i % 4][0], lon=places[i % 4][1])
            for i, lang in enumerate(train.languages)
        ]
        train = build_dataset(languages, cells_of(train))
        k = rng.choice([1, 3])
        imp = NearestNeighborImputer(k=k).fit(train)
        for code in train.codes():
            qlang = language_of(train, code)
            full = observed_of(train, code)
            for target in train.features():
                observed = {f: v for f, v in full.items() if f != target}
                want = knn_oracle(train, qlang, observed, target, k)
                query = (qlang, observed, target)
                assert _answer(predict_one(imp, *query)) == want


def test_knn_no_candidates():
    train = build_dataset([make_language("aaa")], {("aaa", "f"): Cell.observed("v")})
    imp = NearestNeighborImputer(k=2)
    imp.fit(train)
    assert predict_one(imp, make_language("qqq"), {}, "missing feature") is None


def test_knn_rejects_bad_k():
    with pytest.raises(ValueError):
        NearestNeighborImputer(k=0)


def test_load_language_vectors(tmp_path):
    path = tmp_path / "vec.tsv"
    path.write_text("aaa\t1.0\t2.0\t3.0\nbbb\t-1.0\t0.5\t0.0\n")
    vectors = load_language_vectors(path)
    assert sorted(vectors) == ["aaa", "bbb"]
    assert np.allclose(vectors["aaa"], [1.0, 2.0, 3.0])
    assert np.allclose(vectors["bbb"], [-1.0, 0.5, 0.0])


def test_load_language_vectors_ignores_a_leading_bom(tmp_path):
    path = tmp_path / "vec.tsv"
    path.write_text("\ufeffaaa\t1.0\t2.0\nbbb\t-1.0\t0.5\n", encoding="utf-8")
    vectors = load_language_vectors(path)
    assert sorted(vectors) == ["aaa", "bbb"]
    assert np.allclose(vectors["aaa"], [1.0, 2.0])


def test_load_language_vectors_rejects_ragged(tmp_path):
    path = tmp_path / "vec.tsv"
    path.write_text("aaa\t1.0\t2.0\nbbb\t1.0\n")
    with pytest.raises(DatasetError):
        load_language_vectors(path)


@pytest.mark.parametrize("component", ["nan", "inf", "-inf", "NaN"])
def test_load_language_vectors_rejects_non_finite(tmp_path, component):
    path = tmp_path / "vec.tsv"
    path.write_text(f"aaa\t1.0\t2.0\nbbb\t1.0\t{component}\n")
    with pytest.raises(DatasetError, match="line 2: non-finite"):
        load_language_vectors(path)


def test_fill_dataset_asks_once_about_the_hidden_cells():
    test = build_dataset(
        [make_language("ttt"), make_language("uuu")],
        {("ttt", "f"): Cell.observed("x"), ("ttt", "g"): Cell.unknown(),
         ("uuu", "f"): Cell.blanked("y"), ("uuu", "g"): Cell.observed("z")},
    )
    calls = []

    class Recording(GlobalFrequencyImputer):
        def predict(self, test, cells):
            calls.append(cells.tolist())
            return answers_of({cell: ("v", 1.0, "canned") for cell in cells.tolist()})

    filled = fill_dataset(Recording(), test)
    assert calls == [[1, 2]]
    assert cells_of(filled) == {("ttt", "f"): Cell.observed("x"), ("ttt", "g"): Cell.observed("v"),
                                ("uuu", "f"): Cell.observed("v"), ("uuu", "g"): Cell.observed("z")}


def test_prediction_confidence_bounds():
    """``decide`` refuses a winner's share outside [0, 1], from negative
    scores or a negative mass, whatever the other rows hold; a row it
    does not answer is not checked."""
    cells = np.array([0, 1])
    with pytest.raises(ValueError, match="outside"):
        decide(cells, ["a", "b"], np.array([[1, 1], [2, -1]]), ("s",))
    with pytest.raises(ValueError, match="outside"):
        decide(cells[:1], ["a", "b"], np.array([[5, 0]]), ("s",), mass=np.array([[-1.0, 3.0]]))
    assert len(decide(cells[:1], ["a", "b"], np.array([[1, -3]]), ("s",))) == 0


def test_fill_dataset_fills_every_gap():
    rng = random.Random(66)
    train = random_dataset(rng, n_languages=10, min_observed=1)
    feats = train.features()
    test_langs = [
        make_language("t01", genus="GenA", family="FamX", lat=1.0, lon=1.0),
        make_language("t02", genus="GenC", family="FamY", lat=2.0, lon=2.0),
    ]
    cells = {
        ("t01", feats[0]): Cell.unknown(),
        ("t01", feats[1]): Cell.observed("v0"),
        ("t02", feats[0]): Cell.blanked("v1"),
    }
    test = build_dataset(test_langs, cells)
    imp = GlobalFrequencyImputer()
    imp.fit(train)
    filled = fill_dataset(imp, test)
    assert filled.languages == test.languages
    assert set(cells_of(filled)) == set(cells)
    assert all(cell.state == "observed" and cell.value is not None
               for cell in cells_of(filled).values())
    assert cells_of(filled)[("t01", feats[1])] == Cell.observed("v0")


def test_fill_dataset_leaves_out_unanswerable_cells():
    train = build_dataset([make_language("aaa")], {("aaa", "f"): Cell.observed("v")})
    test = build_dataset(
        [make_language("ttt")],
        {("ttt", "f"): Cell.unknown(), ("ttt", "g"): Cell.unknown()},
    )
    imp = GlobalFrequencyImputer().fit(train)
    assert predict_one(imp, language_of(test, "ttt"), {}, "g") is None
    filled = fill_dataset(imp, test)
    assert cells_of(filled) == {("ttt", "f"): Cell.observed("v"), ("ttt", "g"): Cell.unknown()}


BLOCK_CONFIGS = {
    "frequency": {"method": "frequency"},
    "genus_family": {"method": "genus_family"},
    "geo_backoff": {"method": "geo_backoff", "near_km": "1500", "far_km": "4000"},
    "knn": {"method": "knn", "k": "3"},
    "knn_vectors": {"method": "knn"},
    "correlation": {"method": "correlation", "min_support": "3"},
    "ridge": {"method": "ridge", "min_support": "2"},
    "ridge_context": {"method": "ridge", "min_support": "2", "use_context": "true"},
}


def _block_sources(name):
    """A training set and a test set of many languages hiding several
    cells each; half the test languages have a genus and family training
    never sees, and for ``knn_vectors`` two thirds of the languages have
    vectors.  Returns (train, test, vectors)."""
    rng = random.Random(67)
    data = random_dataset(rng, n_languages=60, n_features=6, p_observed=0.7, min_observed=3)
    codes = data.codes()
    train = data.subset(codes[:40])
    test = blank_some(data.subset(codes[35:]), rng, per_language=3)
    languages = [replace(lang, genus=f"NewG{i}", family=f"NewF{i}") if i % 2 else lang
                 for i, lang in enumerate(test.languages)]
    test = build_dataset(languages, cells_of(test))
    vectors = None
    if name == "knn_vectors":
        vectors = {code: tuple(rng.uniform(-1, 1) for _ in range(3))
                   for code in rng.sample(codes, 40)}
    return train, test, vectors


@pytest.mark.parametrize("name", sorted(BLOCK_CONFIGS))
def test_fill_dataset_blocks_match_per_cell_oracles(name):
    """One ``predict`` call answers, target by target, the hidden cells
    of many test languages, several per language, and ``fill_dataset``
    writes those answers; every answer equals the per-cell oracle's for
    that language alone.  Some test
    languages share a code with a training language, some have a genus
    and family training never sees, and with vectors some rank by
    vector and the rest by agreement."""
    train, test, vectors = _block_sources(name)
    config = BLOCK_CONFIGS[name]
    imp = build_imputer(config, vectors=vectors).fit(train, context=test)
    predictions = predictions_of(imp, test)
    # the filled test set observes every answer and keeps every other cell
    assert cells_of(fill_dataset(imp, test)) == {
        key: Cell.observed(predictions[key].value) if key in predictions else cell
        for key, cell in cells_of(test).items()}
    answer = oracles.method_oracle(config["method"], config, train, test, vectors)

    observed = observed_maps(test)
    hidden = [key for key, cell in cells_of(test).items() if cell.state != "observed"]
    assert max(Counter(f for _, f in hidden).values()) >= 10
    assert max(Counter(c for c, _ in hidden).values()) >= 3
    answered = 0
    for code, target in hidden:
        want = answer(language_of(test, code), observed[code], target)
        got = _answer(predictions.get((code, target)))
        if want is not None and config["method"] in ("correlation", "ridge"):
            # totals and scores are floats from another summation order
            assert got == (want[0], pytest.approx(want[1], rel=1e-9))
        else:
            assert got == want
        answered += want is not None
    assert answered > len(hidden) // 2


ANSWER_CONFIGS = {**BLOCK_CONFIGS, "ensemble": {"method": "ensemble", "members": "correlation,knn",
                                                "min_support": "25", "k": "3"}}


def _oracle_predict(imputer, monkeypatch):
    """``imputer.predict`` as it answered with dicts: a function of (test,
    cells) returning cell -> Answer, built by ``decide_oracle`` from the
    very arguments of each ``decide`` call the imputer makes, and for an
    ensemble by ``ensemble_oracle`` over its members' dicts."""
    if isinstance(imputer, EnsembleImputer):
        members = [_oracle_predict(member, monkeypatch) for member in imputer.members]
        return lambda test, cells: oracles.ensemble_oracle(members, test, cells)

    def predict(test, cells):
        found = {}

        def recording(*args, **kwargs):
            found.update(oracles.decide_oracle(*args, **kwargs))
            return decide(*args, **kwargs)

        with monkeypatch.context() as patch:
            for module in ("frequency", "knn", "correlation", "ridge"):
                patch.setattr(f"typoimpute.imputers.{module}.decide", recording)
            imputer.predict(test, cells)
        return found

    return predict


@pytest.mark.parametrize("name", sorted(ANSWER_CONFIGS))
def test_answers_match_the_dict_oracle(name, monkeypatch):
    """For every config, built as ``impute`` builds it (the method, then
    the global mode), ``predict``'s arrays equal the per-cell dicts that
    the oracle versions of ``decide`` and the ensemble make from the same
    scores: the same cells, values and sources, each cell once, and the
    confidences bit for bit.  ``fill_dataset`` writes the dataset that
    the oracle fill writes from those dicts."""
    train, test, vectors = _block_sources(name)
    # each feature's values of its own, so that no target's value codes
    # read the right names from another target's
    train, test = (build_dataset(d.languages, {
        (code, f): Cell(cell.state, cell.value and f"{f[:3]}{cell.value}")
        for (code, f), cell in cells_of(d).items()}) for d in (train, test))
    imp = EnsembleImputer([build_imputer(ANSWER_CONFIGS[name], vectors=vectors),
                           GlobalFrequencyImputer()]).fit(train, context=test)
    cells = np.flatnonzero(test.cell_state != OBSERVED_CODE)
    answers = imp.predict(test, cells)
    got = answer_map(answers)
    want = _oracle_predict(imp, monkeypatch)(test, cells)
    assert len(answers) == len(got) == len(want) > len(cells) // 2
    if name == "ensemble":  # both members answer
        assert {a.source for a in want.values()} == {"correlation", "knn-agreement"}

    def bits(mapping):
        return {cell: (a.value, a.confidence.hex(), a.source) for cell, a in mapping.items()}

    assert bits(got) == bits(want)
    filled = fill_dataset(imp, test)
    oracle = oracles.fill_oracle(want, test)
    assert filled == oracle
    assert serialize_dataset(filled) == serialize_dataset(oracle)


def test_by_target_groups_the_cells_of_known_targets_in_feature_order():
    """``by_target`` yields one group per target that ``known`` holds, in
    feature order, with ``known[target]``, the target's cells in table
    order and their test rows, and skips every other target."""
    langs = [make_language(code) for code in ("aaa", "bbb", "ccc")]
    test = build_dataset(langs, {
        ("ccc", "f2"): Cell.unknown(), ("aaa", "f3"): Cell.blanked("x"),
        ("bbb", "f1"): Cell.observed("y"), ("bbb", "f2"): Cell.blanked("y"),
        ("aaa", "f1"): Cell.unknown(), ("ccc", "f3"): Cell.unknown(),
        ("aaa", "f2"): Cell.blanked("z"),
    })
    cells = np.flatnonzero(test.cell_state != OBSERVED_CODE)
    known = {"f3": "third", "f2": "second", "f9": "absent"}
    groups = list(by_target(test, cells, known))
    codes = test.codes()
    assert [(target, entry, [codes[r] for r in rows.tolist()])
            for target, entry, _, rows in groups] == [("f2", "second", ["aaa", "bbb", "ccc"]),
                                                      ("f3", "third", ["aaa", "ccc"])]
    for target, _, block, rows in groups:
        assert np.all(np.diff(block) > 0) and np.array_equal(test.cell_row[block], rows)
        assert {test.feature_names[f] for f in test.cell_feature[block].tolist()} == {target}
    assert list(by_target(test, cells, {})) == []
