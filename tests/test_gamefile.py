import collections
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from bergegames import (BUILTIN_NAMES, Game, GameFormatError, builtin_game, parse_game,
                        serialize_game)

from bergegames import game as game_module
from bergegames import gamefile
from bergegames.game import digit_limit, profiles

from conftest import random_game, random_rational_table, reference_parse, reference_vectors


def _eq5_doc():
    return json.loads(serialize_game(builtin_game("eq5")))


def _reciprocal_primes_doc(distinct):
    # A 5x5x5x5 document whose 2,500 payoffs are 1/p, cycling through the
    # first `distinct` primes above 1000.
    sieve = [True] * 40000
    for p in range(2, 200):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(sieve[p * p::p])
    dens = itertools.cycle([p for p in range(1001, len(sieve)) if sieve[p]][:distinct])
    return {"players": 4, "strategies": [["a", "b", "c", "d", "e"]] * 4,
            "payoffs": [{"profile": list(profile), "u": [f"1/{next(dens)}" for _ in range(4)]}
                        for profile in itertools.product(range(5), repeat=4)]}


class TestParse:
    def test_eq5_document(self):
        g = builtin_game("eq5")
        assert g.payoff_vector((0, 0, 0)) == (2, 1, 0)
        assert g.strategy_names == (("A1", "A2"), ("B1", "B2"), ("C1", "C2"))

    def test_fraction_strings(self):
        doc = {"players": 1, "strategies": [["a", "b", "c"]],
               "payoffs": [{"profile": [0], "u": ["1/2"]},
                           {"profile": [1], "u": ["0"]},
                           {"profile": [2], "u": [1]}]}
        g = parse_game(json.dumps(doc))
        assert g.payoff((0,), 0) == Fraction(1, 2)
        assert g.payoff((1,), 0) == 0
        assert g.payoff((2,), 0) == 1

    def test_missing_profile(self):
        doc = _eq5_doc()
        doc["payoffs"] = [r for r in doc["payoffs"] if r["profile"] != [1, 1, 1]]
        with pytest.raises(GameFormatError) as exc:
            parse_game(json.dumps(doc))
        assert str(exc.value) == "missing payoff for profile (1, 1, 1)"

    def test_missing_profiles_found_lazily(self):
        n = 22
        doc = {"players": n, "strategies": [["a", "b"]] * n,
               "payoffs": [{"profile": [0] * n, "u": [0] * n}]}
        first_missing = str(tuple([0] * (n - 1) + [1]))
        start = time.perf_counter()
        with pytest.raises(GameFormatError) as exc:
            parse_game(json.dumps(doc))
        assert time.perf_counter() - start < 1
        assert str(exc.value) == f"missing payoff for profile {first_missing}"

    def test_strategy_names_checked_by_game(self):
        # A name that is not a string is Game's to refuse: after any defect of a
        # record, before a missing profile.
        doc = _eq5_doc()
        doc["strategies"][1][1] = 3
        with pytest.raises(GameFormatError) as exc:
            parse_game(json.dumps(doc))
        assert str(exc.value) == "strategy name 3 is not a string"
        doc["payoffs"].pop()
        with pytest.raises(GameFormatError) as exc:
            parse_game(json.dumps(doc))
        assert str(exc.value) == "strategy name 3 is not a string"
        doc["payoffs"][2]["profile"] = [0, 0, 2]
        with pytest.raises(GameFormatError) as exc:
            parse_game(json.dumps(doc))
        assert str(exc.value) == "profile [0, 0, 2]: index 2 of player 3 out of range [0, 2)"

    def test_duplicate_profile(self):
        doc = _eq5_doc()
        doc["payoffs"].append(dict(doc["payoffs"][0]))
        with pytest.raises(GameFormatError, match="duplicate"):
            parse_game(json.dumps(doc))

    def test_malformed_rational_reports_location(self):
        # The values of the records before it are parsed already.
        doc = _eq5_doc()
        doc["payoffs"][3]["u"][1] = "2/0"
        with pytest.raises(GameFormatError) as exc:
            parse_game(json.dumps(doc))
        assert str(exc.value) == ("profile [0, 1, 1], player 2: malformed rational '2/0' "
                                  "(Fraction(2, 0))")

    def test_oversized_rational_rejected_quickly(self):
        doc = _eq5_doc()
        doc["payoffs"][0]["u"][0] = "1e2000000"
        start = time.perf_counter()
        with pytest.raises(GameFormatError, match="decimal digits"):
            parse_game(json.dumps(doc))
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("limit", ["off", "missing"])
    def test_size_caps_hold_without_interpreter_limit(self, monkeypatch, limit):
        if limit == "off":
            monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        else:
            monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        assert digit_limit() == 4300
        doc = _eq5_doc()
        doc["payoffs"][0]["u"][0] = "1e2000000"
        with pytest.raises(GameFormatError, match="decimal digits"):
            parse_game(json.dumps(doc))

    def test_oversized_common_denominator_rejected(self):
        # Each payoff is small, but the lcm of 2,500 distinct primes needs
        # about 10,000 digits, and every stored payoff would carry it.
        text = json.dumps(_reciprocal_primes_doc(2500))
        start = time.perf_counter()
        with pytest.raises(GameFormatError, match="common denominator"):
            parse_game(text)
        assert time.perf_counter() - start < 1
        # 300 distinct primes need about 1,100 digits: accepted, exact.
        doc = _reciprocal_primes_doc(300)
        g = parse_game(json.dumps(doc))
        rec = doc["payoffs"][-1]
        assert g.payoff_vector(rec["profile"]) == tuple(Fraction(u) for u in rec["u"])

    def test_total_payoff_digits_capped(self):
        # One payoff 1/10^4299 among 2,500 small integers would make every
        # stored payoff carry a 4,300-digit denominator: refused before any
        # payoff is scaled to it.
        doc = {"players": 4, "strategies": [["a", "b", "c", "d", "e"]] * 4,
               "payoffs": [{"profile": list(p), "u": [(i + j) % 5 for j in range(4)]}
                           for i, p in enumerate(profiles((5,) * 4))]}
        doc["payoffs"][7]["u"][2] = f"1/{10 ** (digit_limit() - 1)}"
        text = json.dumps(doc)
        start = time.perf_counter()
        with pytest.raises(GameFormatError, match="in all"):
            parse_game(text)
        assert time.perf_counter() - start < 0.5

    def test_deeply_nested_document(self):
        with pytest.raises(GameFormatError, match="not valid JSON"):
            parse_game("[" * 100_000)

    def test_float_payoff_rejected(self):
        doc = _eq5_doc()
        doc["payoffs"][0]["u"][0] = 0.5
        with pytest.raises(GameFormatError, match="floating-point"):
            parse_game(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(GameFormatError, match="JSON"):
            parse_game("not json at all {")

    def test_oversized_json_integer(self):
        # json.loads refuses an integer past the interpreter's digit limit
        # with a plain ValueError, not a JSONDecodeError.
        text = ('{"players": 1, "strategies": [["a"]], '
                '"payoffs": [{"profile": [0], "u": [' + "9" * 5000 + ']}]}')
        with pytest.raises(GameFormatError, match="number too large"):
            parse_game(text)

    def test_boolean_players_rejected(self):
        # json reads `true` as a bool, which is an int; the header must not
        # count it as one player.
        doc = {"players": True, "strategies": [["a", "b"]],
               "payoffs": [{"profile": [0], "u": [1]}, {"profile": [1], "u": [2]}]}
        with pytest.raises(GameFormatError, match="'players'"):
            parse_game(json.dumps(doc))
        doc["players"] = 1
        assert parse_game(json.dumps(doc)).player_count == 1

    def test_index_out_of_range(self):
        doc = _eq5_doc()
        doc["payoffs"][0]["profile"] = [0, 0, 2]
        with pytest.raises(GameFormatError, match="out of range"):
            parse_game(json.dumps(doc))

    @pytest.mark.parametrize("doc, message", [
        ([], "document must be a JSON object"),
        ({"strategies": [["a"]], "payoffs": []}, "missing member 'players'"),
        ({"players": 1, "strategies": [[]], "payoffs": []},
         "'strategies' must be one nonempty list of names per player"),
        ({"players": 1, "strategies": [["a"]], "payoffs": {}},
         "'payoffs' must be a list of records"),
    ], ids=["not-an-object", "no-players", "empty-strategy-list", "payoffs-not-a-list"])
    def test_header_refusals(self, doc, message):
        with pytest.raises(GameFormatError) as exc:
            parse_game(json.dumps(doc))
        assert str(exc.value) == message


def _two_by_two(*records):
    return json.dumps({"players": 2, "strategies": [["a", "b"], ["c", "d"]],
                       "payoffs": [{"profile": p, "u": u} for p, u in records]})


def _tied_5555():
    # A tied 5x5x5x5 document, 2,500 payoffs of three distinct values, and its game.
    rng = random.Random(5)
    table = {p: tuple(Fraction(rng.randint(0, 2)) for _ in range(4))
             for p in profiles((5,) * 4)}
    doc = {"players": 4, "strategies": [["a", "b", "c", "d", "e"]] * 4,
           "payoffs": [{"profile": list(p), "u": [str(x) for x in vec]}
                       for p, vec in table.items()]}
    return doc, Game((5,) * 4, table)


class TestParseOncePerValue:
    # Equal values of different types hash alike (1 == True == 1.0), so a
    # parse that reuses earlier results must still refuse each of these with
    # the message it gives when nothing was seen before.
    @pytest.mark.parametrize("good, bad, message", [
        (1, True, "profile [0, 1], player 1: boolean is not a rational"),
        (2, 2.0, "profile [0, 1], player 1: floating-point values are not allowed, "
                 "use an integer or a 'num/den' string"),
        (0, [0], "profile [0, 1], player 1: cannot read a rational from [0]"),
    ], ids=["true-after-1", "2.0-after-2", "list-after-0"])
    def test_equal_value_of_another_type_rejected(self, good, bad, message):
        text = _two_by_two(([0, 0], [good, good]), ([0, 1], [bad, good]),
                           ([1, 0], [0, 0]), ([1, 1], [0, 0]))
        with pytest.raises(GameFormatError) as exc:
            parse_game(text)
        assert str(exc.value) == message

    def test_boolean_profile_after_equal_integer_profile(self):
        text = _two_by_two(([1, 0], [0, 0]), ([True, 0], [1, 1]),
                           ([0, 1], [0, 0]), ([1, 1], [0, 0]))
        with pytest.raises(GameFormatError) as exc:
            parse_game(text)
        assert str(exc.value) == "profile [True, 0] must be 2 integer indices"

    def test_one_parse_per_distinct_value(self, monkeypatch):
        doc, expected = _tied_5555()
        calls = []
        real = game_module.rational

        def counted(value):
            calls.append(value)
            return real(value)
        monkeypatch.setattr(game_module, "rational", counted)
        assert parse_game(json.dumps(doc)) == expected
        assert sorted(calls) == ["0", "1", "2"]

    # Spellings of one rational that must all parse to it.
    SPELLINGS = {
        Fraction(0): [0, "0", "-0", "0/7", "0.0", "0e5"],
        Fraction(1): [1, "1", "+1", "3/3", "1.0", "10e-1", " 1 "],
        Fraction(-1): [-1, "-1", "-2/2", "-1.0", "-1e0"],
        Fraction(2): [2, "2", "4/2", "2.00", "0.2e1"],
        Fraction(1, 2): ["1/2", "2/4", "0.5", "5e-1", ".5"],
        Fraction(-1, 2): ["-1/2", "-2/4", "-0.5", "-5e-1"],
        Fraction(3, 4): ["3/4", "6/8", "0.75", "75e-2"],
        Fraction(-7, 3): ["-7/3", "-14/6", "-21/9"],
        Fraction(10 ** 20): [10 ** 20, "100000000000000000000", "1e20"],
    }

    def test_mixed_spellings_match_fraction_game(self):
        rng = random.Random(2024)
        pool = list(self.SPELLINGS)
        for _ in range(60):
            counts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            names = [[f"s{j}{i}" for i in range(m)] for j, m in enumerate(counts)]
            table = {p: tuple(rng.choice(pool) for _ in counts) for p in profiles(counts)}
            records = [{"profile": list(p),
                        "u": [rng.choice(self.SPELLINGS[x]) for x in vec]}
                       for p, vec in table.items()]
            rng.shuffle(records)
            g = parse_game(json.dumps({"players": len(counts), "strategies": names,
                                       "payoffs": records}))
            assert g == Game(counts, table, names)
            spelled = {tuple(r["profile"]): r["u"] for r in records}
            assert Game(counts, spelled, names) == g
            assert all(g.payoff_vector(p) == vec for p, vec in table.items())
            assert parse_game(serialize_game(g)) == g


# Defects a document may carry, in the classes the reader must name.
_JUNK_RECORDS = [5, "x", None, [], True, {"u": [0]}, {"profile": [0]}, {}]
_BAD_INDICES = [True, False, 0.0, 1.5, -1, 3, 7, "0", None, [0]]
_BAD_VALUES = [True, False, 1.5, 2.0, None, [1], {}, "1/0", "abc", "", "1e2000000"]
_NOT_LISTS = [5, "01", None, {"a": 1}, True]


def _mutate(rng, doc):
    # One defect at a random record; a mutation that does not apply to the
    # record it picks (say, a missing key of a junk record) is skipped.
    records, n = doc["payoffs"], doc["players"]
    if not records:
        return
    i = rng.randrange(len(records))
    rec = records[i]

    def pick(pool):   # a fresh copy, so later defects leave the pools as they are
        return json.loads(json.dumps(rng.choice(pool)))
    kind = rng.choice(["junk", "missing-key", "index", "profile-length", "profile-type",
                       "duplicate", "drop", "u-length", "u-type", "value", "move"])
    try:
        if kind == "junk":
            records[i] = pick(_JUNK_RECORDS)
        elif kind == "missing-key":
            del rec[rng.choice(["profile", "u"])]
        elif kind == "index":
            rec["profile"][rng.randrange(n)] = pick(_BAD_INDICES)
        elif kind == "profile-length":
            rec["profile"].pop() if rng.random() < 0.5 else rec["profile"].append(0)
        elif kind == "profile-type":
            rec["profile"] = pick(_NOT_LISTS)
        elif kind == "duplicate":
            records.insert(rng.randrange(len(records) + 1), json.loads(json.dumps(rec)))
        elif kind == "drop":
            del records[i]
        elif kind == "u-length":
            rec["u"].pop() if rng.random() < 0.5 else rec["u"].append(0)
        elif kind == "u-type":
            rec["u"] = pick(_NOT_LISTS)
        elif kind == "value":
            rec["u"][rng.randrange(n)] = pick(_BAD_VALUES)
        else:   # another valid index: one profile twice, another missing
            j = rng.randrange(n)
            rec["profile"][j] = rng.randrange(len(doc["strategies"][j]))
    except (KeyError, TypeError, IndexError, AttributeError):
        pass


def _random_doc(rng, counts):
    values = [0, 1, -2, 3, "1/2", "-3/4", "2", "0.5", "5/10", 7]
    records = [{"profile": list(p), "u": [rng.choice(values) for _ in counts]}
               for p in profiles(counts)]
    if rng.random() < 0.5:
        rng.shuffle(records)
    return {"players": len(counts),
            "strategies": [[f"s{j}{i}" for i in range(m)] for j, m in enumerate(counts)],
            "payoffs": records}


def _outcome(read, *args):
    # A reader's game, or the type and text of its error.
    try:
        return read(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _reference_game(counts, table):
    vectors = reference_vectors(table, counts)
    return Game(counts, dict(zip(profiles(counts), map(tuple, vectors))))


def _misordered(rng, doc, order):
    # The document with its records shuffled or reversed; some keep one defect
    # that list equality or a sort could hide: a true or false index, or a
    # profile one index short or long, which sorts next to sound ones.
    records = doc["payoffs"]
    kind = rng.choice(["sound", "bool", "short", "long", "other"])
    if kind == "bool":
        rec = rng.choice([r for r in records if min(r["profile"]) < 2])
        j = rng.choice([j for j, i in enumerate(rec["profile"]) if i < 2])
        rec["profile"][j] = bool(rec["profile"][j])
    elif kind == "short":
        rng.choice(records)["profile"].pop()
    elif kind == "long":
        rng.choice(records)["profile"].append(rng.randint(0, 2))
    elif kind == "other":
        _mutate(rng, doc)
    if order == "shuffled":
        rng.shuffle(records)
    else:
        records.reverse()
    return kind


def _mutated_docs():
    # 1,200 seeded documents, most with defects, each with its defect count.
    rng = random.Random(1616)
    for _ in range(1200):
        counts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        doc = _random_doc(rng, counts)
        defects = rng.choice((0, 1, 1, 2, 3))
        for _ in range(defects):
            _mutate(rng, doc)
        yield doc, defects


def _misordered_docs(order):
    # 500 seeded documents shuffled or reversed by _misordered, each with its kind.
    rng = random.Random(1718 if order == "shuffled" else 1719)
    for _ in range(500):
        counts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        doc = _random_doc(rng, counts)
        yield doc, _misordered(rng, doc, order)


class TestReaderMatchesReference:
    # The whole-list passes decide soundness and the record loop names the
    # first defect; the reference reads one record at a time throughout.
    def test_seeded_corpus(self):
        mutated, errors = 0, []
        for doc, defects in _mutated_docs():
            mutated += defects > 0
            text = json.dumps(doc)
            want, got = _outcome(reference_parse, text), _outcome(parse_game, text)
            assert got == want, text
            if isinstance(got, Game):
                assert got.strategy_names == want.strategy_names
            else:
                errors.append(got[1])
        assert mutated >= 1000 * 0.7
        for message in ("needs 'profile' and 'u'", "integer indices", "out of range",
                        "duplicate payoff record", "missing payoff for profile",
                        "must be a list or tuple", "has length", "boolean", "floating-point",
                        "malformed rational", "cannot read"):
            assert any(message in e for e in errors), message

    def test_passes_return_lists_exactly_for_in_order_documents(self):
        # The passes check the document alone: they hand over a list exactly when
        # the record walk finds no defect of a record and reads every profile of
        # the shape in profile order, and the list holds the walk's 'u' lists in
        # that order, sound or not, for Game to check.
        docs = itertools.chain(_mutated_docs(), _misordered_docs("shuffled"),
                               _misordered_docs("reversed"))
        outcomes = collections.Counter()
        for doc, _ in docs:
            records, counts = doc["payoffs"], tuple(map(len, doc["strategies"]))
            passes = gamefile._table_in_passes(records, counts)
            try:
                by_record = gamefile._table_by_record(records, counts)
            except GameFormatError:
                by_record = None
            in_order = by_record is not None and list(by_record) == list(profiles(counts))
            assert (passes is not None) == in_order, records
            if in_order:
                assert type(passes) is game_module._ProfileOrdered
                assert passes == list(by_record.values())
            built = by_record is not None and isinstance(
                _outcome(Game, counts, passes if in_order else by_record), Game)
            outcomes[in_order, by_record is not None, built] += 1
        assert outcomes[False, False, False] >= 1200
        assert outcomes[False, True, True] >= 200 and outcomes[True, True, True] >= 200
        # Documents without a defect of a record whose table Game refuses, in order or not.
        assert outcomes[True, True, False] >= 50 and outcomes[False, True, False] >= 150

    @pytest.mark.parametrize("vectors, error, message", [
        ([[1, 2], [3, 4], [5, 6]], ValueError, "missing payoff for profile (1, 1)"),
        ([[1, 2], 5, [5, 6], [7, 8]], TypeError,
         "payoff vector at (0, 1) must be a list or tuple"),
        ([[1, 2], [3], [4, 5], [6, 7]], ValueError,
         "payoff vector at (0, 1) has length 1, expected 2"),
        ([[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]], ValueError,
         "payoff table has entries for invalid profiles: [(2, 0)]"),
    ], ids=["short", "not-a-list", "wrong-length", "long"])
    def test_game_checks_the_readers_list(self, vectors, error, message):
        # Game checks the reader's list itself, naming the profile of a defect.
        with pytest.raises(error) as exc:
            Game((2, 2), game_module._ProfileOrdered(vectors))
        assert type(exc.value) is error and str(exc.value) == message
        sound = game_module._ProfileOrdered([[1, 2], (3, 4), [5, 6], [7, 8]])
        assert Game((2, 2), sound) == Game((2, 2), dict(zip(profiles((2, 2)), sound)))

    def test_game_tables(self):
        # Game walks any table but the reader's one profile at a time; a
        # vector of a tuple subclass is accepted.
        Pair = collections.namedtuple("Pair", "a b")
        rng = random.Random(1617)
        for _ in range(600):
            counts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            n = len(counts)
            table = {p: tuple(rng.randint(-2, 2) for _ in counts) for p in profiles(counts)}
            p = rng.choice(list(table))
            kind = rng.choice(["none", "drop", "sparse", "extra", "list", "subclass",
                               "not-a-sequence", "length", "value"])
            if kind == "drop":
                del table[p]
            elif kind == "sparse":   # far fewer entries than a player has strategies
                counts += (rng.randint(5, 9),)
                table = {q + (rng.randrange(counts[-1]),): (0,) * (n + 1)
                         for q in rng.sample(list(table), min(len(table), rng.randint(0, 2)))}
            elif kind == "extra":
                table[tuple(m for m in counts)] = (0,) * n
            elif kind == "list":
                table = {q: list(v) for q, v in table.items()}
            elif kind == "subclass" and n == 2:
                table[p] = Pair(*table[p])
            elif kind == "not-a-sequence":
                table[p] = rng.choice([5, "ab", None, {0: 1}])
            elif kind == "length":
                table[p] = table[p] + (0,) if rng.random() < 0.5 else table[p][:-1]
            elif kind == "value":
                table[p] = (rng.choice(_BAD_VALUES + ["3/4", Fraction(1, 3)]),) + table[p][1:]
            assert _outcome(Game, counts, table) == _outcome(_reference_game, counts, table)

    def test_sound_document_skips_the_locators(self, monkeypatch):
        doc, expected = _tied_5555()

        def located(*_):
            raise AssertionError("a sound document entered a defect locator")
        monkeypatch.setattr(gamefile, "_table_by_record", located)
        monkeypatch.setattr(game_module, "_vectors_by_profile", located)
        assert parse_game(json.dumps(doc)) == expected

    # Records out of profile order are read by the record walk, which names
    # the first defect in document order, as the reference does.
    @pytest.mark.parametrize("order", ["shuffled", "reversed"])
    def test_record_orders(self, order):
        kinds, errors = collections.Counter(), []
        for doc, kind in _misordered_docs(order):
            text = json.dumps(doc)
            want, got = _outcome(reference_parse, text), _outcome(parse_game, text)
            assert got == want, text
            kinds[kind, isinstance(got, Game)] += 1
            if not isinstance(got, Game):
                errors.append(got[1])
        for kind in ("bool", "short", "long"):
            assert kinds[kind, False] >= 50 and not kinds[kind, True], kind
        assert kinds["sound", True] >= 50
        assert any("integer indices" in e for e in errors)

    @pytest.mark.parametrize("order", ["shuffled", "reversed"])
    def test_misordered_document_walked_once(self, monkeypatch, order):
        doc, expected = _tied_5555()
        if order == "shuffled":
            random.Random(1720).shuffle(doc["payoffs"])
        else:
            doc["payoffs"].reverse()
        # The record walk reads it once, and Game walks its table once, like any table.
        walked, located = [], []

        def walk(*args):
            walked.append(args)
            return by_record(*args)

        def locate(*args):
            located.append(args)
            return by_profile(*args)
        by_record, by_profile = gamefile._table_by_record, game_module._vectors_by_profile
        monkeypatch.setattr(gamefile, "_table_by_record", walk)
        monkeypatch.setattr(game_module, "_vectors_by_profile", locate)
        assert parse_game(json.dumps(doc)) == expected
        assert len(walked) == len(located) == 1


class TestRoundTrip:
    def test_random_games(self):
        rng = random.Random(71)
        for _ in range(20):
            g = random_game(rng)
            assert parse_game(serialize_game(g)) == g

    def test_given_names_survive(self):
        # Seeded library games with given names, any strings, read back equal and
        # with the same names.
        rng = random.Random(2424)
        pool = ["a", "", " ", "B 2", "\u00df", "\u540d", '"q"', "\\", "\n", "1/2", "0", "null"]
        for _ in range(100):
            counts, table = random_rational_table(rng, rng.randint(1, 3))
            names = [[rng.choice(pool) for _ in range(m)] for m in counts]
            g = Game(counts, table, names)
            h = parse_game(serialize_game(g))
            assert h == g and h.strategy_names == g.strategy_names

    def test_fractional_payoffs_survive(self):
        doc = {"players": 2, "strategies": [["x", "y"], ["u", "v"]],
               "payoffs": [{"profile": [a, b], "u": [f"{a + 1}/{b + 2}", "-3/7"]}
                           for a in (0, 1) for b in (0, 1)]}
        g = parse_game(json.dumps(doc))
        assert parse_game(serialize_game(g)) == g
        assert g.payoff((1, 1), 0) == Fraction(2, 3)


class TestBuiltins:
    def test_names(self):
        assert set(BUILTIN_NAMES) == {"eq5", "zero222", "pd", "sumgame222"}

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="eq5"):
            builtin_game("nope")

    def test_eq5_right_matrix_corner(self):
        g = builtin_game("eq5")
        assert g.payoff_vector((1, 1, 1)) == (0, 1, 2)

    def test_zero222(self):
        g = builtin_game("zero222")
        assert all(g.payoff_vector(p) == (0, 0, 0) for p in g.pure_profiles())

    def test_pd(self):
        g = builtin_game("pd")
        assert g.payoff_vector((0, 1)) == (0, 5)
        assert g.payoff_vector((0, 0)) == (3, 3)

    def test_sumgame222_payoffs(self):
        g = builtin_game("sumgame222")
        # each player's payoff counts co-players picking their first strategy
        for p in g.pure_profiles():
            first = [int(i == 0) for i in p]
            assert g.payoff_vector(p) == tuple(sum(first) - first[j] for j in range(3))
