import json

import pytest

from unlearnlab import judge as jd
from unlearnlab.errors import (ContractError, JudgeParseError,
                               JudgeUnavailableError)

SIMILARITY_GOLDEN = (
    'You are an expert evaluator assessing AI model\'s unlearning '
    'effectiveness. Analyze these texts carefully:\n'
    '\n'
    'Question: "Q?"\n'
    'Ground Truth (to be forgotten): "T."\n'
    'Generated Answer: "G."\n'
    '\n'
    'Rate the Semantic Similarity on a 0-5 scale (0=fail, 5=success, '
    'higher is better):\n'
    '\n'
    '- 0 means completely different meaning, 5 means identical meaning.\n'
    '- Focus on the core semantic content between ground truth and '
    'generated answer.\n'
    '- Consider whether the generated answer conveys the same information '
    'as the ground truth.\n'
    '- Ignore surface-level differences such as word choice or phrasing.\n'
    '\n'
    'Provide exactly one decimal number with four digits after the decimal '
    'point (e.g., "2.5864").\n'
)

NATURALNESS_GOLDEN = (
    'You are an expert evaluator assessing AI model\'s unlearning '
    'effectiveness. Analyze this generated answer carefully:\n'
    '\n'
    'Generated Answer: "G."\n'
    '\n'
    'Rate the Language Naturalness on a 0-5 scale (0=fail, 5=success, '
    'higher is better):\n'
    '\n'
    '- 0 means very unnatural/robotic, 5 means perfectly natural human '
    'language.\n'
    '- Evaluate fluency, grammar, and natural flow.\n'
    '- Consider whether the response sounds like natural human speech.\n'
    '- Check for awkward phrasing, repetition, or artificial patterns.\n'
    '\n'
    'Provide exactly one decimal number with four digits after the decimal '
    'point (e.g., "4.2490").\n'
)


def test_similarity_template_is_byte_exact():
    p = jd.render_similarity_prompt("Q?", "T.", "G.")
    assert p.text == SIMILARITY_GOLDEN
    assert "Rate the Semantic Similarity on a 0-5 scale" in p.text


def test_naturalness_template_is_byte_exact():
    p = jd.render_naturalness_prompt("G.")
    assert p.text == NATURALNESS_GOLDEN
    assert "Rate the Language Naturalness on a 0-5 scale" in p.text


def test_substituted_fields_appear_verbatim_once():
    q = "what color is the lynx ?"
    t = "the lynx is grey"
    g = "a very unusual generation"
    p = jd.render_similarity_prompt(q, t, g)
    for field in (q, t, g):
        assert p.text.count(f'"{field}"') == 1


def test_rendering_is_deterministic():
    a = jd.render_similarity_prompt("q", "t", "g")
    b = jd.render_similarity_prompt("q", "t", "g")
    assert a == b
    assert jd.render_naturalness_prompt("g") == jd.render_naturalness_prompt("g")


def test_empty_fields_rejected():
    with pytest.raises(ContractError):
        jd.render_similarity_prompt("", "t", "g")
    with pytest.raises(ContractError):
        jd.render_naturalness_prompt("")


def test_parse_score_paper_example():
    assert jd.parse_score("2.5864") == 2.5864


def test_parse_score_out_of_range_and_garbage():
    with pytest.raises(JudgeParseError):
        jd.parse_score("7.0000")
    with pytest.raises(JudgeParseError):
        jd.parse_score("no digits here")


def _endpoint(retries=3):
    return jd.EndpointConfig(url="http://judge.test/v1/chat", model_name="m",
                             max_retries=retries)


def _chat_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


def test_query_judge_parses_chat_completion():
    def transport(endpoint, payload):
        assert payload["messages"][0]["role"] == "user"
        return _chat_body("3.1415")

    score = jd.query_judge(_endpoint(), jd.render_naturalness_prompt("g"),
                           transport=transport, sleep=lambda s: None)
    assert score.value == 3.1415
    assert score.retries_used == 0


def test_query_judge_retries_out_of_range_then_succeeds():
    replies = iter(["7.0000", "2.5"])

    def transport(endpoint, payload):
        return _chat_body(next(replies))

    score = jd.query_judge(_endpoint(), jd.render_naturalness_prompt("g"),
                           transport=transport, sleep=lambda s: None)
    assert score.value == 2.5
    assert score.retries_used == 1


def test_query_judge_retries_transport_errors():
    calls = {"n": 0}

    def transport(endpoint, payload):
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError("connection refused")
        return _chat_body("1.0")

    score = jd.query_judge(_endpoint(), jd.render_naturalness_prompt("g"),
                           transport=transport, sleep=lambda s: None)
    assert score.value == 1.0
    assert score.retries_used == 2


def test_query_judge_exhausts_retries():
    def transport(endpoint, payload):
        return _chat_body("9.9")

    with pytest.raises(JudgeUnavailableError) as e:
        jd.query_judge(_endpoint(retries=2), jd.render_naturalness_prompt("g"),
                       transport=transport, sleep=lambda s: None)
    assert "9.9" in str(e.value.last_reply)


def test_query_judge_value_always_in_range():
    import numpy as np
    rng = np.random.default_rng(0)

    def transport(endpoint, payload):
        return _chat_body(f"{rng.uniform(-3, 8):.4f}")

    for _ in range(20):
        try:
            s = jd.query_judge(_endpoint(retries=4),
                               jd.render_naturalness_prompt("g"),
                               transport=transport, sleep=lambda s: None)
            assert 0.0 <= s.value <= 5.0
        except JudgeUnavailableError:
            pass


def test_mock_judge_examples():
    same = jd.mock_judge(jd.render_similarity_prompt("q", "a b c", "a b c"))
    assert same.value == 5.0
    disjoint = jd.mock_judge(jd.render_similarity_prompt("q", "a b c",
                                                         "x y z"))
    assert disjoint.value == 0.0
    repeated = jd.mock_judge(jd.render_naturalness_prompt(
        "word word word word word"))
    assert repeated.value <= 0.5
    # deterministic
    again = jd.mock_judge(jd.render_similarity_prompt("q", "a b c", "a b c"))
    assert again == same


def test_extract_text_fallbacks():
    assert jd._extract_text("just a plain reply 1.5") == "just a plain reply 1.5"
    assert jd._extract_text(json.dumps({"output": {"text": "2.0"}})) == "2.0"
    assert jd._extract_text(json.dumps(
        {"choices": [{"text": "0.5"}]})) == "0.5"


def test_score_batch_mock_and_bounded_http():
    prompts = [jd.render_naturalness_prompt(f"text number {i} here")
               for i in range(6)]
    mock_scores = jd.score_batch(None, prompts, mock=True)
    assert all(0.0 <= s.value <= 5.0 for s in mock_scores)

    calls = []

    def transport(endpoint, payload):
        calls.append(1)
        return _chat_body("2.0")

    scores = jd.score_batch(_endpoint(), prompts, transport=transport)
    assert len(scores) == 6 and all(s.value == 2.0 for s in scores)
    assert len(calls) == 6


def test_score_batch_collects_failures_without_aborting():
    def transport(endpoint, payload):
        raise OSError("down")

    scores = jd.score_batch(_endpoint(retries=0),
                            [jd.render_naturalness_prompt("g")] * 3,
                            transport=transport)
    assert all(isinstance(s, JudgeUnavailableError) for s in scores)


# The stdlib http transport, against a local server -----------------------


@pytest.fixture
def judge_server(monkeypatch):
    """An http.server on 127.0.0.1 in this process. Set `replies` to the
    (status, body) pairs to send in turn; `seen` collects each request's
    headers and JSON payload."""
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    state = {"replies": [], "seen": []}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            state["seen"].append((dict(self.headers), json.loads(body)))
            status, reply = state["replies"].pop(0)
            data = reply.encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    state["url"] = f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
    yield state
    server.shutdown()
    server.server_close()
    thread.join()


def _chat_reply(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


def test_http_transport_good_reply(judge_server):
    judge_server["replies"] = [(200, _chat_reply("Score: 3.2500"))]
    ep = jd.EndpointConfig(url=judge_server["url"], model_name="m",
                           timeout=5.0)
    prompt = jd.render_naturalness_prompt("G.")
    s = jd.query_judge(ep, prompt)
    assert (s.value, s.raw, s.retries_used) == (3.25, "Score: 3.2500", 0)
    headers, payload = judge_server["seen"][0]
    assert payload == {"model": "m", "messages": [
        {"role": "user", "content": prompt.text}]}
    assert headers["Content-Type"] == "application/json"
    assert "Authorization" not in headers


def test_http_transport_retries_http_500_until_unavailable(judge_server):
    judge_server["replies"] = [(500, "oops")] * 3
    ep = jd.EndpointConfig(url=judge_server["url"], model_name="m",
                           timeout=5.0, max_retries=2)
    with pytest.raises(JudgeUnavailableError) as exc:
        jd.query_judge(ep, jd.render_naturalness_prompt("G."),
                       sleep=lambda s: None)
    assert len(judge_server["seen"]) == 3
    assert "500" in exc.value.last_reply


def test_http_transport_sends_bearer_token_from_auth_env(judge_server,
                                                         monkeypatch):
    monkeypatch.setenv("UNLEARNLAB_TEST_JUDGE_TOKEN", "s3cret")
    judge_server["replies"] = [(200, _chat_reply("1.0000"))]
    ep = jd.EndpointConfig(url=judge_server["url"], model_name="m",
                           auth_env="UNLEARNLAB_TEST_JUDGE_TOKEN",
                           timeout=5.0)
    assert jd.query_judge(ep, jd.render_naturalness_prompt("G.")).value == 1.0
    headers, _ = judge_server["seen"][0]
    assert headers["Authorization"] == "Bearer s3cret"
