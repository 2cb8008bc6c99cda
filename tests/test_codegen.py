from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from tracedistill.codegen import (
    external_generate,
    generate_program,
    generate_programs,
    scene_summary,
    template_source,
)
from tracedistill.config import DEFAULTS
from tracedistill.dsl import parse
from tracedistill.errors import GenerationError
from tracedistill.interp import execute
from tracedistill.scenes import Query, generate_queries, generate_scenes


class TestTemplates:
    def test_counting_template_shape(self, muffins3):
        query = Query("q1", "muffins", "how many muffins", "3")
        program = generate_program(query)
        assert "image.find('muffin')" in program.source
        assert "for p in patches:" in program.source
        assert "return str(count)" in program.source
        trace = execute(parse(program.source), muffins3)
        assert trace.result == "3"

    def test_existence_template(self, table_scene):
        query = Query("q2", "table", "is there a dog", "no")
        program = generate_program(query)
        assert "image.exists('dog')" in program.source
        assert "bool_to_yesno" in program.source
        assert execute(parse(program.source), table_scene).result == "no"

    def test_attribute_template(self, table_scene):
        query = Query("q3", "table", "what color is the cup", "red")
        program = generate_program(query)
        assert "best_text_match" in program.source
        assert execute(parse(program.source), table_scene).result == "red"

    def test_spatial_template(self, table_scene):
        query = Query("q4", "table", "is the cup left of the plate", "yes")
        program = generate_program(query)
        assert "horizontal_center" in program.source
        assert execute(parse(program.source), table_scene).result == "yes"

    def test_relation_template(self, table_scene):
        query = Query("q5", "table", "what is the cup on", "plate")
        program = generate_program(query)
        assert "simple_query" in program.source
        assert execute(parse(program.source), table_scene).result == "plate"

    def test_unmatched_question_raises(self):
        query = Query("q6", "s", "describe the mood of the image", "?")
        with pytest.raises(GenerationError, match="no template"):
            generate_program(query)

    def test_every_template_parses(self):
        scenes = generate_scenes(60, seed=1)
        for query in generate_queries(scenes, seed=2):
            parse(template_source(query.question))
            parse(template_source(query.question, corrupted=True))


def corrupted_flags(queries, programs):
    """Which programs are corrupted: every corrupted sketch differs from the
    clean one for its question."""
    return [p.source != template_source(q.question) for q, p in zip(queries, programs, strict=True)]


class TestCorruption:
    @pytest.mark.parametrize("rate,n", [(0.3, 40), (0.25, 10), (1.0, 7), (0.0, 12)])
    def test_exact_corrupted_count(self, rate, n):
        scenes = generate_scenes(n, seed=5)
        queries = generate_queries(scenes, seed=6)
        programs = generate_programs(queries, rate, seed=7)
        assert corrupted_flags(queries, programs).count(True) == math.ceil(rate * n)

    def test_corrupted_selection_is_seeded(self):
        scenes = generate_scenes(20, seed=5)
        queries = generate_queries(scenes, seed=6)
        a = generate_programs(queries, 0.5, seed=7)
        b = generate_programs(queries, 0.5, seed=7)
        assert corrupted_flags(queries, a) == corrupted_flags(queries, b)
        assert [p.source for p in a] == [p.source for p in b]

    def test_corrupted_programs_always_wrong(self):
        scenes = generate_scenes(50, seed=15)
        queries = generate_queries(scenes, seed=16)
        by_id = {s.scene_id: s for s in scenes}
        for query in queries:
            program = generate_program(query, corrupted=True)
            trace = execute(parse(program.source), by_id[query.scene_id])
            assert trace.status != "ok" or trace.result != query.expected_answer


class _StubHandler(BaseHTTPRequestHandler):
    response_source = "return 'yes'"
    response = None  # a whole reply to send in place of {"source": response_source}

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        self.request_body = json.loads(self.rfile.read(length))
        type(self).last_request = self.request_body
        reply = type(self).response
        if reply is None:
            reply = {"source": type(self).response_source}
        payload = json.dumps(reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    server.server_close()


def generator_at(endpoint: str, **settings) -> dict:
    """The config's ``external_generator`` settings, pointed at ``endpoint``."""
    return {**DEFAULTS["external_generator"], "endpoint": endpoint, **settings}


class TestExternalGenerator:
    def test_valid_source_accepted(self, table_scene, stub_endpoint):
        _StubHandler.response_source = "flag = image.exists('dog')\nreturn bool_to_yesno(flag)"
        config = generator_at(stub_endpoint)
        query = Query("q", "table", "is there a dog", "no")
        program = external_generate(config, query, scene_summary(table_scene))
        assert program.source == _StubHandler.response_source
        assert _StubHandler.last_request["question"] == "is there a dog"
        assert "api_doc_version" in _StubHandler.last_request

    def test_unparseable_source_rejected(self, table_scene, stub_endpoint):
        _StubHandler.response_source = "def nope(:"
        config = generator_at(stub_endpoint)
        query = Query("q", "table", "is there a dog", "no")
        with pytest.raises(GenerationError, match="unparseable"):
            external_generate(config, query, scene_summary(table_scene))

    @pytest.mark.parametrize("reply", [[], "x", {}, {"source": 5}])
    def test_a_reply_without_a_string_source_rejected(self, table_scene, stub_endpoint,
                                                       monkeypatch, reply):
        monkeypatch.setattr(_StubHandler, "response", reply)
        config = generator_at(stub_endpoint)
        query = Query("q", "table", "is there a dog", "no")
        with pytest.raises(GenerationError, match="^external generator returned no source$"):
            external_generate(config, query, scene_summary(table_scene))

    def test_transport_failure_reported(self, table_scene):
        config = generator_at("http://127.0.0.1:1/", timeout=0.2)
        query = Query("q", "table", "is there a dog", "no")
        with pytest.raises(GenerationError, match="transport"):
            external_generate(config, query, scene_summary(table_scene))
