"""The TCP transport: round trips, reconnects, fault recovery, the
slow-loris guard and the circuit breaker."""

from __future__ import annotations

import socket
import time

import pytest

from repro import api, perf
from repro.accelerator import PROPOSED_LA
from repro.errors import (
    CircuitOpenError,
    SessionBudgetExceeded,
    TransportError,
)
from repro.resilience import infra
from repro.resilience.incidents import incident_log
from repro.service import ServiceConfig
from repro.service.client import CircuitBreaker, LoopClient, RetryPolicy
from repro.service.net import NetConfig, NetServer
from repro.vm.translator import TranslationOptions, translate_loop
from repro.workloads import kernels as K


@pytest.fixture(autouse=True)
def _clean_slate():
    perf.clear_caches()
    incident_log().clear()
    infra.disarm()
    yield
    infra.disarm()
    perf.clear_caches()
    incident_log().clear()
    incident_log().configure_sink(None)


def _server(**net_kwargs) -> NetServer:
    net_kwargs.setdefault("service", ServiceConfig(workers=1))
    return NetServer(NetConfig(**net_kwargs))


def test_tcp_translate_matches_direct_path():
    loop = K.fir_filter(taps=4)
    with _server() as server:
        with LoopClient(server.host, server.port,
                        session="round-trip") as client:
            assert client.ping()
            served = client.translate(loop)
    perf.clear_caches()
    direct = translate_loop(loop, PROPOSED_LA, TranslationOptions())
    assert served.ok and direct.ok
    assert served.image.ii == direct.image.ii
    assert served.image.schedule.times == direct.image.schedule.times
    assert server.active_connections() == 0


def test_tcp_run_loop_matches_api():
    loop = K.checksum(trip_count=64)
    with _server() as server:
        with LoopClient(server.host, server.port, session="rl") as client:
            served = client.run_loop(loop, seed=77)
    perf.clear_caches()
    assert served == api.run_loop(loop, seed=77)


def test_session_continuity_across_reconnect():
    loop = K.fir_filter(taps=4)
    with _server() as server:
        client = LoopClient(server.host, server.port, session="sticky",
                            budget_units=10_000)
        try:
            assert client.translate(loop).ok
            # Drop the socket behind the client's back; the next call
            # must reconnect and resume the *same* named session.
            client._disconnect()
            assert client.translate(loop).ok
            assert client.stats.reconnects == 2
        finally:
            client.close()
        session = server.service.get_or_open_session("sticky")
        assert session.name == "sticky"


def test_close_is_idempotent_and_concurrent_safe():
    import threading

    from repro.errors import ServiceClosed

    loop = K.fir_filter(taps=4)
    with _server() as server:
        client = LoopClient(server.host, server.port, session="closer")
        assert client.translate(loop).ok
        # Many racing closes (as happens when a pool tears down while
        # a with-block exits) must neither raise nor double-close the
        # descriptor.
        barrier = threading.Barrier(8)
        errors: list[BaseException] = []

        def slam() -> None:
            barrier.wait()
            try:
                client.close()
            except BaseException as exc:  # noqa: BLE001 — the assertion
                errors.append(exc)

        threads = [threading.Thread(target=slam) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = client.close()  # still idempotent after the stampede
        assert stats.requests >= 1
        with pytest.raises(ServiceClosed):
            client.ping()  # closed clients refuse to reconnect


def test_typed_error_crosses_the_wire():
    loop = K.fir_filter(taps=4)
    with _server() as server:
        with LoopClient(server.host, server.port, session="meter",
                        budget_units=1) as client:
            first = client.translate(loop)
            assert first.meter.total_units() > 1
            with pytest.raises(SessionBudgetExceeded) as info:
                client.translate(loop)
            assert info.value.kind == "session-budget"


@pytest.mark.parametrize("mode", infra.NET_FAULT_MODES,
                         ids=lambda m: m.value)
def test_client_recovers_from_each_wire_fault(mode, tmp_path):
    loop = K.fir_filter(taps=4)
    retry = RetryPolicy(attempts=6, base_delay_s=0.01,
                        attempt_timeout_s=0.4)
    with _server() as server:
        with LoopClient(server.host, server.port, session="fault",
                        retry=retry) as client:
            assert client.ping()  # connect + hello before arming
            token = f"test-{mode.value}"
            infra.arm([infra.InfraFaultSpec(mode=mode, token=token,
                                            delay_s=1.0)],
                      str(tmp_path))
            try:
                served = client.translate(loop)
            finally:
                infra.disarm()
    perf.clear_caches()
    direct = translate_loop(loop, PROPOSED_LA, TranslationOptions())
    assert served.ok
    assert served.image.schedule.times == direct.image.schedule.times
    assert infra.fired(str(tmp_path), token)
    injected = [i for i in incident_log().incidents
                if i.details.get("token") == token]
    assert len(injected) == 1 and injected[0].kind == mode.value


def test_slow_loris_client_is_cut_off():
    from repro.service import wire
    with _server(idle_timeout_s=0.3) as server:
        with socket.create_connection((server.host, server.port),
                                      timeout=5.0) as sock:
            sock.sendall(wire.MAGIC[:2])  # trickle, then stall
            sock.settimeout(5.0)
            try:
                leftover = sock.recv(64)
            except (ConnectionResetError, OSError):
                leftover = b""
            assert leftover == b""  # server closed, never hung
        deadline = time.monotonic() + 5.0
        while (server.active_connections() > 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert server.active_connections() == 0
    slow = [i for i in incident_log().incidents
            if i.kind == "slow-client"]
    assert len(slow) == 1


def test_connect_refused_is_typed():
    client = LoopClient("127.0.0.1", 1,  # reserved port: refused
                        retry=RetryPolicy(attempts=2,
                                          base_delay_s=0.001))
    with pytest.raises(TransportError):
        client.ping(deadline_s=2.0)
    client.close()


def test_circuit_breaker_opens_and_half_opens():
    clock = {"now": 0.0}
    breaker = CircuitBreaker(threshold=2, cooldown_s=1.0,
                             clock=lambda: clock["now"])
    breaker.check()  # closed: no-op
    breaker.record_failure()
    breaker.check()  # one failure: still closed
    breaker.record_failure()
    with pytest.raises(CircuitOpenError):
        breaker.check()
    clock["now"] = 1.5  # past the cooldown: half-open probe allowed
    breaker.check()
    breaker.record_success()
    breaker.check()
    assert breaker.failures == 0


def test_api_connect_uses_settings_defaults():
    loop = K.fir_filter(taps=4)
    with _server() as server:
        with api.connect(server.host, server.port,
                         session="facade") as client:
            assert client.translate(loop).ok


# -- the trust model on a real socket -----------------------------------------

def test_non_loopback_bind_refused_without_secret():
    server = NetServer(NetConfig(host="0.0.0.0"))
    with pytest.raises(TransportError, match="auth secret"):
        server.start()
    server.stop()  # idempotent even though boot was refused


def test_secret_authenticates_end_to_end():
    with _server(auth_secret="s3cret") as server:
        with LoopClient(server.host, server.port, session="keyed",
                        secret="s3cret") as client:
            assert client.ping()


def test_unkeyed_client_rejected_by_keyed_server():
    with _server(auth_secret="s3cret") as server:
        with LoopClient(server.host, server.port, session="unkeyed",
                        retry=RetryPolicy(attempts=2,
                                          attempt_timeout_s=0.5),
                        deadline_s=2.0) as client:
            with pytest.raises(TransportError):
                client.ping()


def test_stop_after_failed_boot_is_clean():
    blocker = socket.socket()
    try:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        server = NetServer(NetConfig(port=port))
        with pytest.raises(TransportError, match="cannot bind"):
            server.start()
        server.stop()  # must not raise on the already-closed loop
        server.stop()
    finally:
        blocker.close()


def test_concurrent_hellos_share_one_session():
    import threading

    from repro.service.server import LoopService, ServiceConfig

    with LoopService(ServiceConfig()) as service:
        barrier = threading.Barrier(8)
        seen = []

        def hello() -> None:
            barrier.wait()
            seen.append(service.get_or_open_session("shared",
                                                    priority=0))

        threads = [threading.Thread(target=hello) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(session) for session in seen}) == 1


# -- repeated requests: decode once on the server, pack once on the client ---

def _fields(result) -> tuple:
    """What a translate reply must agree on with the direct path."""
    image = result.image
    return (result.loop_name, result.ok, result.failure_kind,
            None if image is None else (image.ii, image.stage_count,
                                        image.schedule.times),
            result.instructions, tuple(sorted(result.meter.units.items())))


def _count_calls(monkeypatch, module, name: str) -> list:
    """Record the first argument of every call to ``module.name``."""
    seen: list = []
    original = getattr(module, name)

    def counted(first, *args, **kwargs):
        seen.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return seen


def _count_digests(monkeypatch) -> list:
    """Loops whose content digest is actually computed (memo misses)."""
    from repro.perf import digest
    computed: list = []
    original = digest.loop_digest

    def counted(loop):
        if "_veal_loop_digest" not in loop.__dict__:
            computed.append(loop)
        return original(loop)

    monkeypatch.setattr(digest, "loop_digest", counted)
    return computed


def test_repeated_translate_decodes_and_digests_once(monkeypatch):
    from repro.service import wire
    from repro.service.loadgen import request_corpus

    corpus = request_corpus()
    # Two kernels, two accelerator variants, and the session defaults.
    requests = [corpus[0], corpus[2], corpus[5],
                (K.fir_filter(taps=4), None, None)]
    bodies = [wire.translate_body(*request).data for request in requests]
    assert len(set(bodies)) == len(requests)
    decoded = _count_calls(monkeypatch, wire, "unpack_body")
    computed = _count_digests(monkeypatch)
    replies: list = []
    with _server() as server:
        with LoopClient(server.host, server.port, session="memo") as client:
            for request in requests:
                replies.append(client.translate(*request))
            memo = server._translate_memo
            server_loops = {id(memo.peek(body)[0]) for body in memo.keys()}
            first_digests = len(computed)
            for _ in range(4):
                for request in requests:
                    replies.append(client.translate(*request))
    for body in bodies:
        assert decoded.count(body) == 1
    assert len(server_loops) == len(requests)
    # Repeats reuse the first decode's loops and their digest memos.
    assert len(computed) == first_digests
    assert sum(1 for loop in computed if id(loop) in server_loops) \
        == len(requests)
    perf.clear_caches()
    with perf.engine_at(0):
        direct = [_fields(api.translate(*request)) for request in requests]
    assert [_fields(reply) for reply in replies] == direct * 5


def test_cosmetic_and_deadline_variants_never_alias(monkeypatch):
    import copy

    from repro.service import wire

    loop = K.fir_filter(taps=4)
    renamed = copy.deepcopy(loop)
    renamed.body[0].comment = "a different comment"
    slow = TranslationOptions(deadline_s=30.0)
    fast = TranslationOptions(deadline_s=60.0)
    variants = [(loop, None, slow), (renamed, None, slow),
                (loop, None, fast)]
    decoded = _count_calls(monkeypatch, wire, "unpack_body")
    with _server() as server:
        with LoopClient(server.host, server.port, session="alias") as client:
            for _ in range(2):
                for variant in variants:
                    assert client.translate(*variant).ok
            memo = {body: server._translate_memo.peek(body)
                    for body in server._translate_memo.keys()}
    bodies = [wire.translate_body(*variant).data for variant in variants]
    assert len(set(bodies)) == len(variants)
    for body, (sent, _config, options) in zip(bodies, variants):
        assert decoded.count(body) == 1
        got, _, got_options = memo[body]
        assert got.body[0].comment == sent.body[0].comment
        assert got_options.deadline_s == options.deadline_s


def test_translate_memo_evicts_least_recently_used(monkeypatch):
    from repro.service import net, wire

    monkeypatch.setattr(net, "TRANSLATE_MEMO_ENTRIES", 2)
    loops = {name: K.fir_filter(taps=taps)
             for name, taps in (("a", 2), ("b", 3), ("c", 4))}
    bodies = {name: wire.translate_body(loop).data
              for name, loop in loops.items()}
    decoded = _count_calls(monkeypatch, wire, "unpack_body")
    with _server() as server:
        with LoopClient(server.host, server.port, session="lru") as client:
            for name in "abacab":
                assert client.translate(loops[name]).ok
            assert len(server._translate_memo) == 2
    # "a" was refreshed before "c" arrived, so "b" was the one evicted.
    assert [decoded.count(bodies[name]) for name in "abc"] == [1, 2, 1]


def test_forbidden_global_body_is_never_memoised(monkeypatch):
    from repro.errors import ProtocolError
    from repro.service import wire

    evil = b"cos\nsystem\n."
    decoded = _count_calls(monkeypatch, wire, "unpack_body")
    with _server() as server:
        with LoopClient(server.host, server.port, session="evil") as client:
            for _ in range(3):
                with pytest.raises(ProtocolError) as info:
                    client.call("translate", wire.PackedBody(evil))
                assert info.value.reason == "forbidden-global"
            assert len(server._translate_memo) == 0
            assert client.ping()
    assert decoded.count(evil) == 3


@pytest.mark.parametrize("op", ["translate", "hello"])
def test_body_calling_a_repro_function_is_refused(op, tmp_path):
    # A body reducing to repro.obs.trace.start_trace(victim) would
    # truncate the victim file and start tracing if the function
    # resolved; the allowlist refuses it before anything runs.
    from repro import obs
    from repro.errors import ProtocolError
    from repro.service import wire

    victim = tmp_path / "victim"
    victim.write_text("keep")
    evil = (b"crepro.obs.trace\nstart_trace\n(V"
            + str(victim).encode() + b"\ntR.")
    try:
        with _server() as server:
            with LoopClient(server.host, server.port,
                            session="evil") as client:
                with pytest.raises(ProtocolError) as info:
                    client.call(op, wire.PackedBody(evil))
                assert info.value.reason == "forbidden-global"
                assert client.ping()
        assert victim.read_text() == "keep"
        assert not obs.tracing_active()
    finally:
        if obs.tracing_active():
            obs.stop_trace()


def test_planted_memos_in_a_crafted_body_are_refused(monkeypatch):
    from repro.ir.loop import Loop
    from repro.perf.digest import loop_digest
    from repro.service import wire

    loop = K.fir_filter(taps=4)
    genuine = loop_digest(loop)
    clean_state = Loop.__getstate__

    def planting(self):
        state = clean_state(self)
        state["_veal_loop_digest"] = "0" * 64
        state["_veal_cache_keys"] = {"planted": True}
        return state

    monkeypatch.setattr(Loop, "__getstate__", planting)
    crafted = wire.pack_body((loop, None, None))
    monkeypatch.setattr(Loop, "__getstate__", clean_state)
    with _server() as server:
        with LoopClient(server.host, server.port, session="plant") as client:
            served = [client.call("translate", wire.PackedBody(crafted))
                      for _ in range(2)]
            decoded_loop = server._translate_memo.peek(crafted)[0]
    assert decoded_loop.__dict__["_veal_loop_digest"] == genuine
    assert "planted" not in decoded_loop.__dict__["_veal_cache_keys"]
    perf.clear_caches()
    with perf.engine_at(0):
        direct = _fields(api.translate(loop))
    assert [_fields(reply) for reply in served] == [direct, direct]


def test_client_packs_once_across_a_forced_retry(monkeypatch, tmp_path):
    from repro.service import wire

    loop = K.fir_filter(taps=4)
    packs = _count_calls(monkeypatch, wire, "pack_body")
    frames = _count_calls(monkeypatch, wire, "encode_frame")
    retry = RetryPolicy(attempts=4, base_delay_s=0.01,
                        attempt_timeout_s=0.4)
    with _server() as server:
        with LoopClient(server.host, server.port, session="pack",
                        retry=retry) as client:
            assert client.ping()
            infra.arm([infra.InfraFaultSpec(
                mode=infra.InfraFaultMode.NET_DROP, token="pack-drop")],
                str(tmp_path))
            try:
                replies = [client.translate(loop) for _ in range(3)]
            finally:
                infra.disarm()
            assert client.stats.retries >= 1
    assert all(reply.ok for reply in replies)
    ours = [obj for obj in packs
            if isinstance(obj, tuple) and obj and obj[0] is loop]
    assert len(ours) == 1
    sent = [frame["body"] for frame in frames
            if frame.get("op") == "translate"]
    assert len(sent) == 3 + client.stats.retries
    assert set(sent) == {wire.translate_body(loop).data}


def test_cluster_client_translate_uses_the_packed_body(monkeypatch):
    from repro.service import wire
    from repro.service.cluster import ClusterClient

    loop = K.fir_filter(taps=4)
    helper = _count_calls(monkeypatch, wire, "translate_body")
    packs = _count_calls(monkeypatch, wire, "pack_body")
    with _server() as server:
        with ClusterClient(server.host, server.port,
                           session="fleet") as client:
            replies = [client.translate(loop) for _ in range(3)]
    assert len(helper) == 3 and all(sent is loop for sent in helper)
    assert sum(1 for obj in packs
               if isinstance(obj, tuple) and obj and obj[0] is loop) == 1
    perf.clear_caches()
    with perf.engine_at(0):
        direct = _fields(api.translate(loop))
    assert [_fields(reply) for reply in replies] == [direct] * 3


# -- the server's reply memo --------------------------------------------------

def _reply_packs(monkeypatch):
    """A probe listing every ``TranslationResult`` packed so far."""
    from repro.service import wire
    from repro.vm.translator import TranslationResult

    packs = _count_calls(monkeypatch, wire, "pack_body")
    return lambda: [obj for obj in packs
                    if isinstance(obj, TranslationResult)]


def _direct(requests) -> list:
    perf.clear_caches()
    with perf.engine_at(0):
        return [_fields(api.translate(*request)) for request in requests]


def test_repeated_translate_reply_is_packed_once(monkeypatch):
    loop = K.fir_filter(taps=4)
    replies_packed = _reply_packs(monkeypatch)
    with _server() as server:
        with LoopClient(server.host, server.port, session="reply") as client:
            replies = [client.translate(loop) for _ in range(6)]
            assert len(server._reply_memo) == 1
    assert len(replies_packed()) == 1
    assert [_fields(reply) for reply in replies] == _direct([(loop,)]) * 6


def test_reply_memo_never_aliases_distinct_requests(monkeypatch):
    import copy

    loop = K.fir_filter(taps=4)
    renamed = copy.deepcopy(loop)
    renamed.name = "fir_renamed"
    # A config differing only in name shares the core cache entry
    # (same digest) but not the reply: its image carries the config.
    variants = [(loop, PROPOSED_LA, None),
                (loop, PROPOSED_LA.with_(num_int_units=4), None),
                (loop, PROPOSED_LA.with_(name="LA-twin"), None),
                (renamed, PROPOSED_LA, None),
                (loop, PROPOSED_LA,
                 TranslationOptions(priority_kind="height"))]
    replies_packed = _reply_packs(monkeypatch)
    replies: list = []
    with _server() as server:
        with LoopClient(server.host, server.port, session="alias") as client:
            for _ in range(3):
                replies.extend(client.translate(*variant)
                               for variant in variants)
            assert len(server._reply_memo) == len(variants)
    assert len(replies_packed()) == len(variants)
    assert [reply.loop_name for reply in replies[:4]] == \
        [loop.name] * 3 + ["fir_renamed"]
    assert replies[0].image.digest == replies[2].image.digest
    assert [reply.image.config.name for reply in replies[:3]] == \
        [PROPOSED_LA.name, PROPOSED_LA.name, "LA-twin"]
    assert replies[1].image.config.num_int_units == 4
    assert [_fields(reply) for reply in replies] == _direct(variants) * 3


def test_invalidated_translation_repacks_its_reply(monkeypatch):
    from repro.vm.translator import invalidate_translation

    loop = K.fir_filter(taps=4)
    request = (loop, PROPOSED_LA, TranslationOptions())
    replies_packed = _reply_packs(monkeypatch)
    with _server() as server:
        with LoopClient(server.host, server.port, session="deopt") as client:
            replies = [client.translate(*request) for _ in range(2)]
            assert len(replies_packed()) == 1
            assert invalidate_translation(*request)
            replies += [client.translate(*request) for _ in range(2)]
            assert len(server._reply_memo) == 1
    assert len(replies_packed()) == 2
    assert [_fields(reply) for reply in replies] == _direct([request]) * 4


@pytest.mark.parametrize("case", ["failure", "deadline", "engine0"])
def test_uncached_replies_are_never_memoised(monkeypatch, case):
    import contextlib

    request = {
        "failure": (K.while_scan(),),
        "deadline": (K.fir_filter(taps=4), None,
                     TranslationOptions(deadline_s=30.0)),
        "engine0": (K.fir_filter(taps=4),),
    }[case]
    engine = perf.engine_at(0) if case == "engine0" \
        else contextlib.nullcontext()
    replies_packed = _reply_packs(monkeypatch)
    with _server() as server, engine:
        with LoopClient(server.host, server.port, session=case) as client:
            replies = [client.translate(*request) for _ in range(3)]
            assert len(server._reply_memo) == 0
    assert len(replies_packed()) == 3
    assert all(reply.ok == (case != "failure") for reply in replies)
    assert [_fields(reply) for reply in replies] == _direct([request]) * 3


def test_reply_memo_evicts_least_recently_used(monkeypatch):
    from repro.service import net

    monkeypatch.setattr(net, "TRANSLATE_MEMO_ENTRIES", 2)
    loops = {name: K.fir_filter(taps=taps, name=f"fir_{name}")
             for name, taps in (("a", 2), ("b", 3), ("c", 4))}
    replies_packed = _reply_packs(monkeypatch)
    with _server() as server:
        with LoopClient(server.host, server.port, session="lru") as client:
            for name in "abacab":
                assert client.translate(loops[name]).ok
                assert len(server._reply_memo) <= 2
    packed = [result.loop_name for result in replies_packed()]
    # "a" was refreshed before "c" arrived, so "b" was the one evicted.
    assert [packed.count(loops[name].name) for name in "abc"] == [1, 2, 1]



def test_hot_translate_reply_body_is_unchanged(monkeypatch):
    """A cache-served reply carries the finalized image every VM shares;
    the timing constants an estimate memoised on it stay out of the
    body, which is byte-identical with and without that estimate."""
    from repro.service import wire
    from repro.vm.runtime import VMConfig, VirtualMachine
    from repro.vm.translator import TranslationResult

    loop = K.fir_filter(taps=4)
    bodies: list = []
    original = wire.pack_body

    def recording(obj):
        data = original(obj)
        if isinstance(obj, TranslationResult):
            bodies.append((obj.image, data))
        return data

    monkeypatch.setattr(wire, "pack_body", recording)

    def served_body(estimate: bool) -> bytes:
        perf.clear_caches()
        bodies.clear()
        local = translate_loop(loop, PROPOSED_LA, TranslationOptions())
        if estimate:
            vm = VirtualMachine(VMConfig(accelerator=PROPOSED_LA,
                                         functional=False))
            assert vm.run_loop(loop).accel_cycles_per_invocation is not None
            assert "_veal_timing" in local.image.__dict__
        with _server() as server:
            with LoopClient(server.host, server.port,
                            session="hot") as client:
                served = client.translate(loop)
        assert "_veal_timing" not in served.image.__dict__
        assert len(bodies) == 1 and bodies[0][0] is local.image
        return bodies[0][1]

    assert served_body(estimate=True) == served_body(estimate=False)


# -- the client's reply memo --------------------------------------------------

def _memo_inputs(monkeypatch) -> list:
    """Every reply body that reached the client's reply memo."""
    from repro.service import client

    return _count_calls(monkeypatch, client.REPLY_MEMO, "decode")


def _memo_counts() -> tuple:
    from repro import obs

    counters = obs.metrics_snapshot()["counters"]
    return (counters.get("net.client.reply_memo.hits", 0),
            counters.get("net.client.reply_memo.misses", 0))


def test_repeated_reply_is_decoded_at_most_twice(monkeypatch):
    from repro.service import client, wire

    loop = K.fir_filter(taps=4)
    inputs = _memo_inputs(monkeypatch)
    decoded = _count_calls(monkeypatch, wire, "unpack_body")
    hits, misses = _memo_counts()
    with _server() as server:
        with LoopClient(server.host, server.port, session="once") as lc:
            replies = [lc.translate(loop) for _ in range(6)]
    assert len(inputs) == 6
    for body in set(inputs):
        assert decoded.count(body) <= 2
    assert len(client.REPLY_MEMO) == len(set(inputs)) == 1
    assert _memo_counts() == (hits + 4, misses + 2)
    assert [_fields(reply) for reply in replies] == _direct([(loop,)]) * 6


def test_fresh_loop_replies_are_never_retained(monkeypatch):
    from repro.service import client

    loops = [K.fir_filter(taps=taps, name=f"fresh_{taps}")
             for taps in range(2, 7)]
    inputs = _memo_inputs(monkeypatch)
    hits, misses = _memo_counts()
    with _server() as server:
        with LoopClient(server.host, server.port, session="fresh") as lc:
            replies = [lc.translate(loop) for loop in loops]
    assert len(set(inputs)) == len(loops)
    assert len(client.REPLY_MEMO) == 0
    assert _memo_counts() == (hits, misses + len(loops))
    assert [_fields(reply) for reply in replies] == \
        _direct([(loop,) for loop in loops])


def test_each_memo_hit_owns_its_result_and_meter():
    loop = K.fir_filter(taps=4)
    with _server() as server:
        with LoopClient(server.host, server.port, session="own") as lc:
            replies = [lc.translate(loop) for _ in range(4)]
            expected = _fields(replies[0])
            # The third and fourth replies are memo hits.
            assert replies[2].image is replies[3].image
            assert len({id(reply) for reply in replies}) == 4
            assert len({id(reply.meter) for reply in replies}) == 4
            assert len({id(reply.meter.units) for reply in replies}) == 4
            replies[2].meter.charge("identify", 1_000)
            replies[2].meter.budget_units = 7
            replies[2].loop_name = "mutated"
            after = lc.translate(loop)
    assert replies[2].meter.total_units() == \
        replies[3].meter.total_units() + 1_000
    assert _fields(after) == _fields(replies[3]) == expected
    assert after.meter.budget_units is None
    assert after.meter.total_units() == replies[0].meter.total_units()


def test_memo_replies_equal_a_fresh_decode_and_engine0(monkeypatch):
    from repro.service import wire

    requests = [(K.fir_filter(taps=4),), (K.while_scan(),),
                (K.fir_filter(taps=4), PROPOSED_LA.with_(num_int_units=2),
                 None)]
    inputs = _memo_inputs(monkeypatch)
    replies: list = []
    with _server() as server:
        with LoopClient(server.host, server.port, session="eq") as lc:
            for _ in range(4):
                replies.extend(lc.translate(*request)
                               for request in requests)
    assert len(inputs) == len(replies)
    for reply, body in zip(replies, inputs):
        fresh = wire.unpack_body(body)
        assert reply.loop_name == fresh.loop_name
        for part in ("image", "failure_reason"):
            assert wire.pack_body(getattr(reply, part)) == \
                wire.pack_body(getattr(fresh, part))
        assert reply.meter.units == fresh.meter.units
        assert reply.meter.total_units() == fresh.meter.total_units()
        assert (reply.meter.budget_units, reply.meter.deadline_s) == \
            (fresh.meter.budget_units, fresh.meter.deadline_s)
    assert not replies[1].ok
    assert [_fields(reply) for reply in replies] == _direct(requests) * 4


def test_memo_hits_copy_every_meter_field():
    from repro.service import wire
    from repro.service.client import ReplyMemo
    from repro.vm.costmodel import TranslationMeter

    result = translate_loop(K.fir_filter(taps=4), PROPOSED_LA,
                            TranslationOptions())
    result.meter = TranslationMeter(dict(result.meter.units), 50_000, 30.0,
                                    _total=result.meter.total_units())
    body = wire.pack_body(result)
    memo = ReplyMemo()
    replies = [memo.decode(body) for _ in range(4)]
    assert len(memo) == 1
    for reply in replies:
        assert (reply.meter.units, reply.meter.total_units(),
                reply.meter.budget_units, reply.meter.deadline_s) == \
            (result.meter.units, result.meter.total_units(), 50_000, 30.0)
    assert len({id(reply.meter) for reply in replies}) == 4


@pytest.mark.parametrize("body", [b"cos\nsystem\n.", b"not a pickle"],
                         ids=["forbidden-global", "garbage"])
def test_undecodable_reply_body_is_never_stored(body):
    from repro.errors import ProtocolError
    from repro.service.client import ReplyMemo

    memo = ReplyMemo()
    for _ in range(3):
        with pytest.raises(ProtocolError):
            memo.decode(body)
    assert len(memo) == 0 and len(memo._seen) == 0


def test_reply_memo_bound_and_eviction_order(monkeypatch):
    from repro.service import net, wire
    from repro.service.client import ReplyMemo

    bodies = {name: wire.pack_body(translate_loop(
                  K.fir_filter(taps=taps, name=f"fir_{name}"),
                  PROPOSED_LA, TranslationOptions()))
              for name, taps in (("a", 2), ("b", 3), ("c", 4))}
    decoded = _count_calls(monkeypatch, wire, "unpack_body")
    monkeypatch.setattr(net, "TRANSLATE_MEMO_ENTRIES", 2)
    memo = ReplyMemo()
    for name in "aabb":
        memo.decode(bodies[name])
    assert memo._results.keys() == [bodies["a"], bodies["b"]]
    memo.decode(bodies["a"])  # a hit refreshes "a"
    for name in "cc":
        memo.decode(bodies[name])
    # "a" was refreshed before "c" arrived, so "b" was the one evicted.
    assert memo._results.keys() == [bodies["a"], bodies["c"]]
    assert len(memo) == 2
    memo.decode(bodies["b"])  # a first sighting again: decoded, not kept
    assert memo._results.keys() == [bodies["a"], bodies["c"]]
    assert [decoded.count(bodies[name]) for name in "abc"] == [2, 3, 2]


def _run_threads(target, count: int) -> list:
    """Run *target(index)* on *count* threads with a short switch
    interval; returns the exceptions they raised."""
    import sys
    import threading

    errors: list = []
    barrier = threading.Barrier(count)

    def run(index: int) -> None:
        try:
            barrier.wait()
            target(index)
        except Exception as exc:  # noqa: BLE001 — the assertion
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_client_threads_share_the_reply_memo(monkeypatch):
    from repro.service import client
    from repro.service.loadgen import request_corpus

    requests = request_corpus()[:6]
    clients, rounds = 4, 5
    inputs = _memo_inputs(monkeypatch)
    hits, misses = _memo_counts()
    results: dict = {}
    with _server() as server:
        def drive(index: int) -> None:
            with LoopClient(server.host, server.port,
                            session=f"thread-{index}") as lc:
                results[index] = [lc.translate(*request)
                                  for _ in range(rounds)
                                  for request in requests]

        assert _run_threads(drive, clients) == []
    calls = clients * rounds * len(requests)
    distinct = len(set(inputs))
    assert len(inputs) == calls
    assert len(client.REPLY_MEMO) == distinct
    new_hits, new_misses = _memo_counts()
    assert new_hits - hits + new_misses - misses == calls
    # Racing first sightings may each decode, but never more than one
    # per thread before the body is admitted.
    assert new_misses - misses <= (clients + 1) * distinct
    expected = _direct(requests) * rounds
    for index in range(clients):
        assert [_fields(reply) for reply in results[index]] == expected


def test_reply_memo_bound_holds_under_racing_evictions(monkeypatch):
    from repro.service import net, wire
    from repro.service.client import ReplyMemo

    names = [f"fir_{taps}" for taps in range(2, 7)]
    bodies = [wire.pack_body(translate_loop(
                  K.fir_filter(taps=taps, name=name), PROPOSED_LA,
                  TranslationOptions()))
              for taps, name in zip(range(2, 7), names)]
    monkeypatch.setattr(net, "TRANSLATE_MEMO_ENTRIES", 3)
    memo = ReplyMemo()
    wrong: list = []

    def hammer(index: int) -> None:
        for step in range(200):
            pick = (index + step * (index + 1)) % len(bodies)
            if memo.decode(bodies[pick]).loop_name != names[pick]:
                wrong.append(pick)
            assert len(memo) <= 3

    assert _run_threads(hammer, 4) == []
    assert wrong == [] and len(memo) <= 3
    assert set(memo._results.keys()) <= set(bodies)


@pytest.mark.parametrize("mode", [infra.InfraFaultMode.NET_CORRUPT,
                                  infra.InfraFaultMode.NET_TRUNCATE],
                         ids=lambda m: m.value)
def test_bad_reply_frame_never_reaches_the_reply_memo(mode, monkeypatch,
                                                      tmp_path):
    from repro.service import client

    loop = K.fir_filter(taps=4)
    retry = RetryPolicy(attempts=4, base_delay_s=0.01,
                        attempt_timeout_s=0.4)
    inputs = _memo_inputs(monkeypatch)
    with _server() as server:
        with LoopClient(server.host, server.port, session="bad",
                        retry=retry) as lc:
            replies = [lc.translate(loop)]  # first sighting
            good = inputs[0]
            token = f"memo-{mode.value}"
            # The faulted reply would have been the admitting sighting.
            infra.arm([infra.InfraFaultSpec(mode=mode, token=token)],
                      str(tmp_path))
            try:
                replies.append(lc.translate(loop))
            finally:
                infra.disarm()
            replies.append(lc.translate(loop))
            assert lc.stats.retries >= 1
            assert lc.stats.protocol_errors >= 1
    assert infra.fired(str(tmp_path), token)
    assert set(inputs) == {good}
    assert client.REPLY_MEMO._results.keys() == [good]
    assert [_fields(reply) for reply in replies] == \
        [_fields(replies[0])] * 3 == _direct([(loop,)]) * 3
