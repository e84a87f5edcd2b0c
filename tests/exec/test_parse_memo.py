"""The lowering cache parses each OAL body text once per process.

Every body reaches the parser through ``exec/cache.oal_bodies``; a memo
keyed by the body text serves the second and later parses of one text.
The AST is frozen and every analysis keeps its own side tables, so two
models that share a body text still type and lower it apart.
"""

import pytest

from repro.exec import cache
from repro.exec.cache import clear_lowering_cache, lower_component, oal_bodies
from repro.models import build_model
from repro.oal.errors import OALSyntaxError
from repro.xuml import ModelBuilder


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_lowering_cache()
    yield
    clear_lowering_cache()


def _counting_parser(monkeypatch):
    """Count the parses that miss the memo (the name the cache calls)."""
    texts = []
    parse = cache.parse_activity

    def counting(text):
        texts.append(text)
        return parse(text)
    monkeypatch.setattr(cache, "parse_activity", counting)
    return texts


def _blocks(model):
    return [outcome[0] for *_, outcome in
            oal_bodies(model, model.components[0])]


def test_the_same_text_gives_the_same_block(monkeypatch):
    texts = _counting_parser(monkeypatch)
    first, second = build_model("packetproc"), build_model("packetproc")
    blocks = _blocks(first)
    assert all(a is b for a, b in zip(blocks, _blocks(second)))
    assert len(texts) == len(set(texts))   # each text parsed once
    assert cache._parse(texts[0]) is cache._parse(texts[0])


def test_a_syntax_error_raises_every_time(monkeypatch):
    texts = _counting_parser(monkeypatch)
    for _ in range(3):
        with pytest.raises(OALSyntaxError):
            cache._parse("self.a = ;")
    assert texts == ["self.a = ;"] * 3
    assert "self.a = ;" not in cache._parsed


def test_clearing_the_lowering_cache_empties_the_memo(monkeypatch):
    build_model("microwave")
    assert cache._parsed
    clear_lowering_cache()
    assert cache._parsed == {}
    texts = _counting_parser(monkeypatch)
    build_model("microwave")
    assert texts   # a fresh process's parses again


def test_the_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(cache, "_PARSED_LIMIT", 3)
    for value in range(7):
        cache._parse(f"x = {value};")
    assert 0 < len(cache._parsed) <= 3


def _counter_model(attribute_type: str):
    builder = ModelBuilder("Counter")
    component = builder.component("c")
    klass = component.klass("Counter", "A")
    klass.attr("a_id", "unique_id")
    klass.attr("a", attribute_type)
    klass.event("A1", "tick")
    klass.state("Idle", 1, activity="self.a = self.a + 1;")
    klass.trans("Idle", "A1", "Idle")
    return builder.build()


def test_a_shared_text_types_apart_in_each_model():
    integer, real = _counter_model("integer"), _counter_model("real")
    assert _blocks(integer)[0] is _blocks(real)[0]
    integer_ir, real_ir = (
        repr(lower_component(model, model.components[0])
             .activities["A", "Idle"]) for model in (integer, real))
    assert "'real'" not in integer_ir and "'integer'" in integer_ir
    assert "'real'" in real_ir
