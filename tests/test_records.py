"""Every record class behaves as a frozen, slotted record: built by position
or by keyword, with its defaults; checked when built and when replaced;
immutable; and compared, hashed and printed field by field. The printed
forms are frozen as literals."""

import copy
import pickle

import numpy as np
import pytest

from charentropy.cleanse import CleanseConfig
from charentropy.errors import ConfigError
from charentropy.ingest import FolioMetadataMap, LongTable, WordRecord
from charentropy.metrics import (BigramMatrix, CharStream, CoverageReport,
                                 EntropyReport, PairCells, TypeCounts,
                                 asdict, replace)
from charentropy.sampling import SampleDistribution, SamplingConfig
from charentropy.sukhotin import AdjacencyMatrix, SukhotinResult
from charentropy.translit import Rule, RuleSet

WORD = {"surface_form": "daiin", "line_pos_fwd": 1, "line_pos_rev": 2,
        "para_pos_fwd": 3, "para_pos_rev": 4, "locus_kind": "paragraph",
        "line_number": 5, "paragraph_number": 6, "folio": "f1r",
        "quire": "A", "section": "herbal", "language": "A", "hand": "1",
        "transcriber": "H"}
ONE = np.zeros((1, 1), dtype=np.int64)
PAIR = np.array([[0, 1], [1, 0]])


class Case:
    """A record class's sample: its arguments, by field (the shared arrays
    above are not copied, so records holding them compare equal); the
    defaults its trailing fields take; the changes each check rejects; its
    ``repr``; and its field values after the checks, which it hashes as,
    or None when a field is unhashable."""

    def __init__(self, cls, values, shown, key, defaults=None, bad=()):
        self.cls, self.values, self.shown, self.key = cls, values, shown, key
        self.defaults, self.bad = defaults or {}, bad

    def __repr__(self):
        return self.cls.__name__


CASES = [
    Case(WordRecord, WORD,
         "WordRecord(surface_form='daiin', line_pos_fwd=1, line_pos_rev=2, "
         "para_pos_fwd=3, para_pos_rev=4, locus_kind='paragraph', "
         "line_number=5, paragraph_number=6, folio='f1r', quire='A', "
         "section='herbal', language='A', hand='1', transcriber='H')",
         tuple(WORD.values()), bad=[
        *(({"surface_form": w}, ValueError) for w in ("", "a b", "a\tb")),
        *(({name: 0}, ValueError) for name in WORD
          if name.endswith(("_fwd", "_rev", "_number"))),
        ({"locus_kind": "marginalia"}, ValueError),
        ({"language": "C"}, ValueError), ({"hand": "6"}, ValueError)]),
    Case(FolioMetadataMap,
         {"entries": {"f1r": ("herbal", "A", "1", "A")},
          "default_entry": ("", "unclassified", "unclassified", "")},
         "FolioMetadataMap(entries={'f1r': ('herbal', 'A', '1', 'A')}, "
         "default_entry=('', 'unclassified', 'unclassified', ''))",
         None, defaults={"default_entry": None}, bad=[
             ({"entries": {"f1r": ("herbal", "C", "1", "A")}}, ValueError),
             ({"entries": {"f1r": ("herbal", "A", "6", "A")}}, ValueError),
             ({"default_entry": ("", "unclassified", "0", "")}, ValueError)]),
    Case(CharStream, {"symbols": "#aa#a#", "alphabet": frozenset("a")},
         "CharStream(symbols='#aa#a#', alphabet=frozenset({'a'}))",
         ("#aa#a#", frozenset("a")), bad=[
             ({"symbols": "#"}, ValueError), ({"symbols": "a#"}, ValueError),
             ({"symbols": "#a"}, ValueError),
             ({"symbols": "#a##a#"}, ValueError),
             ({"alphabet": frozenset("a#")}, ValueError),
             ({"symbols": "#ab#"}, ValueError)]),
    Case(BigramMatrix, {"symbols": ("#",), "counts": ONE, "joint": ONE,
                        "conditional": ONE, "weighted": ONE},
         "BigramMatrix(symbols=('#',), counts=array([[0]]), "
         "joint=array([[0]]), conditional=array([[0]]), "
         "weighted=array([[0]]))", None),
    Case(TypeCounts, {"source_id": "doc", "forms": ("a", "b"),
                      "freq": (2, 1), "boundary_word": (3, "a#b"),
                      "ids": ONE},
         "TypeCounts(source_id='doc', forms=('a', 'b'), freq=(2, 1), "
         "boundary_word=(3, 'a#b'), ids=array([[0]]))",
         None, defaults={"ids": None}),
    Case(PairCells, {"symbols": ("#", "a"),
                     "cells": {("#", "a"): 1, ("a", "#"): 1}},
         "PairCells(symbols=('#', 'a'), cells={('#', 'a'): 1, ('a', '#'): 1})",
         None),
    Case(EntropyReport, {"charset_size": 2, "h0": 1.5, "h1": 1.25, "h2": 0.5,
                         "token_count": 10, "word_token_count": 3,
                         "word_type_count": 2},
         "EntropyReport(charset_size=2, h0=1.5, h1=1.25, h2=0.5, "
         "token_count=10, word_token_count=3, word_type_count=2)",
         (2, 1.5, 1.25, 0.5, 10, 3, 2)),
    Case(CoverageReport, {"threshold": 0.5,
                          "qualifying_bigrams": (("a", "#", 1.0, 0.25),),
                          "total_share": 0.25, "word_final_share": 0.25},
         "CoverageReport(threshold=0.5, qualifying_bigrams=(('a', '#', 1.0, "
         "0.25),), total_share=0.25, word_final_share=0.25)",
         (0.5, (("a", "#", 1.0, 0.25),), 0.25, 0.25)),
    Case(SamplingConfig, {"window_sizes": [5, 10], "samples_per_size": 3,
                          "seed": 7},
         "SamplingConfig(window_sizes=(5, 10), samples_per_size=3, seed=7)",
         ((5, 10), 3, 7), defaults={"samples_per_size": 1000, "seed": 0},
         bad=[({"window_sizes": ()}, ConfigError),
              ({"window_sizes": (5, 0)}, ConfigError),
              ({"samples_per_size": 0}, ConfigError),
              ({"seed": -1}, ConfigError), ({"seed": 2 ** 64}, ConfigError)]),
    Case(SampleDistribution, {"window_size": 5, "values": (1.0, 2.0),
                              "mean": 1.5, "sd": 0.5, "min": 1.0, "max": 2.0},
         "SampleDistribution(window_size=5, values=(1.0, 2.0), mean=1.5, "
         "sd=0.5, min=1.0, max=2.0)", (5, (1.0, 2.0), 1.5, 0.5, 1.0, 2.0)),
    Case(CleanseConfig, {"lowercase": False, "strip_punctuation": False,
                         "rare_char_threshold": 0.01,
                         "script_ranges": ((0x100, 0x17F), (0x41, 0x5A)),
                         "preserve_chars": "x"},
         "CleanseConfig(lowercase=False, strip_punctuation=False, "
         "rare_char_threshold=0.01, script_ranges=((65, 90), (256, 383)), "
         "preserve_chars=frozenset({'x'}))",
         (False, False, 0.01, ((0x41, 0x5A), (0x100, 0x17F)),
              frozenset("x")),
         defaults={"lowercase": True, "strip_punctuation": True,
                   "rare_char_threshold": 0.0001, "script_ranges": None,
                   "preserve_chars": frozenset()},
         bad=[({"rare_char_threshold": 1.0}, ConfigError),
              ({"rare_char_threshold": -0.1}, ConfigError),
              ({"script_ranges": ((0x5A, 0x41),)}, ConfigError),
              ({"script_ranges": ((0x41, 0x5A), (0x50, 0x60))}, ConfigError)]),
    Case(Rule, {"pattern": "ch", "replacement": "C"},
         "Rule(pattern='ch', replacement='C')", ("ch", "C"),
         bad=[({"pattern": ""}, ValueError),
              ({"replacement": "ch"}, ValueError)]),
    Case(RuleSet, {"name": "t", "rules": (Rule("ch", "C"),),
                   "declared_alphabet": frozenset("C")},
         "RuleSet(name='t', rules=(Rule(pattern='ch', replacement='C'),), "
         "declared_alphabet=frozenset({'C'}))",
         ("t", (Rule("ch", "C"),), frozenset("C")),
         bad=[({"declared_alphabet": frozenset()}, ValueError),
              ({"rules": (Rule("ch", "C"), Rule("ch", "D"))}, ValueError)]),
    Case(AdjacencyMatrix, {"symbols": ("a", "b"), "counts": PAIR},
         "AdjacencyMatrix(symbols=('a', 'b'), counts=array([[0, 1],\n"
         "       [1, 0]]))", None,
         bad=[({"symbols": ("a",)}, ValueError),
              ({"counts": np.ones((2, 2), int)}, ValueError),
              ({"counts": np.array([[0, 1], [2, 0]])}, ValueError)]),
    Case(SukhotinResult, {"vowels": ("a",), "include_space": False,
                          "iterations": 2, "final_sums": {"a": 3}},
         "SukhotinResult(vowels=('a',), include_space=False, iterations=2, "
         "final_sums={'a': 3})", None),
]


@pytest.fixture(params=CASES, ids=repr)
def case(request):
    return request.param


def test_built_by_position_or_keyword_with_the_defaults(case):
    by_position = case.cls(*case.values.values())
    assert repr(by_position) == repr(case.cls(**case.values)) == case.shown
    assert list(asdict(by_position)) == list(case.values)
    given = {k: v for k, v in case.values.items() if k not in case.defaults}
    for record in (case.cls(**given), case.cls(*given.values())):
        for name, default in case.defaults.items():
            assert getattr(record, name) == default
    with pytest.raises(TypeError):
        case.cls(*case.values.values(), None)
    with pytest.raises(TypeError):
        case.cls(**case.values, extra=None)
    if given:  # leave out a field that has no default, or misname one
        first = next(iter(given))
        rest = {k: v for k, v in case.values.items() if k != first}
        for args, kwargs in (((), rest), ((), {**rest, "extra": None}),
                             (tuple(given.values())[:-1], {})):
            with pytest.raises(TypeError):
                case.cls(*args, **kwargs)


def test_every_check_raises_when_built_and_when_replaced(case):
    record = case.cls(**case.values)
    assert repr(replace(record)) == case.shown
    for changes, error in case.bad:
        with pytest.raises(error):
            case.cls(**{**case.values, **changes})
        with pytest.raises(error):
            replace(record, **changes)


def test_assignment_and_deletion_raise(case):
    record = case.cls(**case.values)
    for name in case.values:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == case.shown


def test_slots_hold_the_fields_except_a_rule_sets(case):
    record = case.cls(**case.values)
    if case.cls is RuleSet:
        assert not hasattr(RuleSet, "__slots__") and vars(record)
    else:
        assert case.cls.__slots__ == tuple(case.values)
        assert not hasattr(record, "__dict__")


def test_equality_and_hash_are_field_wise(case):
    record = case.cls(**case.values)
    assert record == case.cls(**case.values)
    assert record.__eq__(tuple(case.values.values())) is NotImplemented
    if case.key is None:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(case.key)
        assert tuple(map(record.__getattribute__, case.values)) == case.key


def test_copied_and_pickled_as_built(case):
    record = case.cls(**case.values)
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is case.cls and repr(twin) == case.shown
    if case.cls is RuleSet:  # with what its checks derived
        assert vars(twin) == vars(record)


def test_long_table_builds_its_columns_from_records():
    row = WordRecord(**WORD)
    table = LongTable([row, row], "doc")
    assert table == LongTable(records=(row, row), source_id="doc")
    assert table.records == (row, row)
    assert LongTable.__slots__ == ("columns", "source_id")
    assert repr(table) == (
        "LongTable(columns=(('daiin', 'daiin'), (1, 1), (2, 2), (3, 3), "
        "(4, 4), ('paragraph', 'paragraph'), (5, 5), (6, 6), ('f1r', 'f1r'), "
        "('A', 'A'), ('herbal', 'herbal'), ('A', 'A'), ('1', '1'), "
        "('H', 'H')), source_id='doc')")
    assert hash(table) == hash((table.columns, "doc"))
    for twin in (copy.copy(table), copy.deepcopy(table),
                 pickle.loads(pickle.dumps(table))):
        assert type(twin) is LongTable and twin == table
    for name in ("columns", "source_id"):
        with pytest.raises(AttributeError):
            setattr(table, name, None)
        with pytest.raises(AttributeError):
            delattr(table, name)
