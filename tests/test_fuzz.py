"""Tests for the differential-fuzzing subsystem (repro.fuzz).

Covers the tentpole pieces — generator legality, the three-way oracle,
shrinking against an intentionally corrupted interpreter, JSON replay —
plus the satellite guarantees: seed determinism (byte-identical programs)
and the injectable-RNG plumbing through ``run_and_verify``.
"""

import hashlib
import pathlib
import random

import pytest

import repro.core.isa.interpreter as interpreter_module
from repro.core.isa.encoding import encode_items
from repro.core.isa.interpreter import interpret_program
from repro.fuzz import (
    CasePlan,
    DrainSegment,
    FeedSegment,
    PlanError,
    build_case,
    plan_from_json,
    plan_to_json,
    random_plan,
    run_case,
    shrink,
    trivial_plan,
    validate_plan,
)
from repro.fuzz.cli import corpus_paths
from repro.fuzz.generators import passthrough_dfg_spec
from repro.fuzz.oracle import evaluate_case
from repro.__main__ import main


def _plan(tag: str) -> CasePlan:
    return random_plan(random.Random(tag), name=f"test-{tag}")


class TestGenerator:
    @pytest.mark.parametrize("index", range(6))
    def test_plans_validate_and_build(self, index):
        plan = _plan(f"gen:{index}")
        validate_plan(plan)  # raises on any legality violation
        built = build_case(plan)
        commands = built.program.commands
        # Shape invariants: exactly one config first, one full barrier last.
        assert type(commands[0]).__name__ == "SDConfig"
        assert type(commands[-1]).__name__ == "SDBarrierAll"
        assert built.program.num_commands >= 4

    def test_json_roundtrip_is_identity(self):
        plan = _plan("roundtrip")
        text = plan_to_json(plan)
        assert plan_to_json(plan_from_json(text)) == text

    def test_validation_rejects_illegal_plans(self):
        plan = trivial_plan()
        # Wrong element total for the port width.
        bad = plan_from_json(plan_to_json(plan))
        bad.feeds["A"][0].count = 2
        with pytest.raises(PlanError):
            validate_plan(bad)
        # Overlapping write pattern (write completion order is timing-
        # dependent).
        bad = plan_from_json(plan_to_json(plan))
        bad.num_instances = 4
        bad.feeds["A"] = [FeedSegment(kind="const", count=4, value=1)]
        bad.drains["Z"] = [DrainSegment(kind="mem", per_access=2,
                                        num_strides=2, stride_elems=1)]
        with pytest.raises(PlanError):
            validate_plan(bad)


class TestOracle:
    @pytest.mark.parametrize("index", range(4))
    def test_generated_cases_agree(self, index):
        report = run_case(_plan(f"oracle:{index}"))
        assert report.ok, [str(d) for d in report.divergences]

    def test_trivial_case_agrees(self):
        assert run_case(trivial_plan()).ok

    def test_evaluator_predicts_full_output_streams(self):
        """The pure evaluation produces width x instances words per
        output port — the exact stream the drains consume."""
        plan = _plan("eval")
        built = build_case(plan)
        expected = evaluate_case(built)
        widths = {p["name"]: len(p["sources"])
                  for p in plan.dfg_spec["outputs"]}
        for port, stream in expected.out_streams.items():
            assert len(stream) == widths[port] * plan.num_instances

    def test_detects_corrupted_scratch_write(self, monkeypatch):
        """One scratchpad write of the simulator leg, with its third byte
        flipped, is a ``sim-scratch`` divergence naming that byte."""
        from repro.sim.scratchpad import Scratchpad

        plan = trivial_plan()
        plan.drains = {"Z": [DrainSegment(kind="scratch", count=1)]}
        want = evaluate_case(build_case(plan)).scratch
        write, written = Scratchpad.write, []

        def corrupt_write(self, addr, data):
            if not written:
                data = bytearray(data)
                data[2] ^= 0xFF
                written.append(addr + 2)
            write(self, addr, bytes(data))

        monkeypatch.setattr(Scratchpad, "write", corrupt_write)
        report = run_case(plan)
        [offset] = written
        assert [(d.kind, d.detail) for d in report.divergences] == [(
            "sim-scratch",
            f"scratch[{offset}]: got 0x{want[offset] ^ 0xFF:02x} "
            f"want 0x{want[offset]:02x}",
        )]

    def test_detects_corrupted_interpreter(self, monkeypatch):
        _corrupt_interpreter_writes(monkeypatch)
        report = run_case(trivial_plan())
        assert not report.ok
        assert any(d.kind.startswith("interp-") for d in report.divergences)


def _lock_plans():
    """Every corpus case, then the first 300 plans ``fuzz --seed 0`` draws."""
    for path in corpus_paths():
        yield plan_from_json(path.read_text())
    for index in range(300):
        yield random_plan(random.Random(f"0:{index}"))


def _digest_state(digest, label, store, scratch, streams):
    """Fold one leg's end state into ``digest``: every store page by id,
    the scratchpad bytes and the named word streams, sorted by name."""
    digest.update(f"{label}\n".encode())
    for pid, page in sorted(store.snapshot_pages().items()):
        digest.update(f"{pid}:".encode() + page)
    digest.update(bytes(scratch))
    for name, words in sorted(streams.items()):
        digest.update(f"{name}={list(words)}\n".encode())


#: SHA-256 of both reference legs' end states over ``_lock_plans``
REFERENCE_LEGS_SHA = (
    "1fc90847d1f838a7434b9ecacdc14436e3c9e13dd14af8869574b78f69bbcc96")


class TestReferenceLegsLock:
    """The pure evaluation and the interpreter end every lock plan in
    exactly the locked state: ``evaluate_case``'s store, scratchpad and
    output streams, and ``interpret_program``'s store, scratchpad and
    residual (non-empty) port queues."""

    def test_end_states_sha(self):
        digest = hashlib.sha256()
        for plan in _lock_plans():
            built = build_case(plan)
            expected = evaluate_case(built)
            _digest_state(digest, f"eval {plan.name}", expected.store,
                          expected.scratch, expected.out_streams)
            store = built.fresh_store()
            final = interpret_program(built.program, store)
            residual = {f"{kind}{port_id}": queue
                        for (kind, port_id), queue in final.queues.items()
                        if queue}
            _digest_state(digest, f"interp {plan.name}", store,
                          final.scratch, residual)
        assert digest.hexdigest() == REFERENCE_LEGS_SHA


class TestScheduleMemo:
    def test_memo_keeps_the_most_recently_used_schedules(self, monkeypatch):
        from repro.fuzz import case

        monkeypatch.setattr(case, "SCHEDULE_CACHE_SIZE", 2)
        monkeypatch.setattr(case, "_SCHEDULE_CACHE", {})
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["seed"])
            return schedule(*args, **kwargs)

        schedule = case.schedule
        monkeypatch.setattr(case, "schedule", counted)
        spec = passthrough_dfg_spec({"A": 1}, {"O": 1})
        first = case.schedule_plan_dfg(spec, 0)
        case.schedule_plan_dfg(spec, 1)
        assert case.schedule_plan_dfg(spec, 0) is first  # now most recent
        case.schedule_plan_dfg(spec, 2)  # evicts seed 1, not seed 0
        assert case.schedule_plan_dfg(spec, 0) is first
        case.schedule_plan_dfg(spec, 1)
        assert calls == [0, 1, 2, 1]
        assert [key[1] for key in case._SCHEDULE_CACHE] == [0, 1]


class TestPerCaseWork:
    """What a case pays once: one compile shared by the simulator and the
    interpreter, and one serialisation of the plan's DFG spec."""

    def test_run_case_compiles_once(self, monkeypatch):
        from .test_property_dfg import count_compiles

        compiled = count_compiles(monkeypatch)
        plan = _plan("compile-once")
        assert run_case(plan).ok
        assert compiled == [build_case(plan).config.dfg]

    def test_build_after_random_plan_serialises_nothing(self, monkeypatch):
        import json

        plan = _plan("no-dumps")
        calls = []
        dumps = json.dumps

        def counted(*args, **kwargs):
            calls.append(args)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counted)
        build_case(plan)
        build_case(plan)
        assert calls == []

    def test_reassigned_spec_is_scheduled_anew(self):
        """The shrinker swaps in a new ``dfg_spec`` (a pass-through with
        the same port shapes); the next build schedules that DFG, also on
        a plan whose old spec was already keyed."""
        plan = _plan("reassign")
        assert build_case(plan).config.dfg.name != "passthrough"
        plan.dfg_spec = passthrough_dfg_spec(
            {port["name"]: port["width"] for port in plan.dfg_spec["inputs"]},
            {port["name"]: len(port["sources"])
             for port in plan.dfg_spec["outputs"]})
        built = build_case(plan)
        assert built.config.dfg.name == "passthrough"
        assert run_case(plan).ok

    def test_shrinker_passthrough_candidate_schedules_it(self):
        from repro.fuzz.shrink import _candidates

        plan = _plan("reassign")
        build_case(plan)
        (candidate,) = [c for c in _candidates(plan)
                        if c.dfg_spec.get("name") == "passthrough"
                        and c.feeds == plan.feeds]
        assert build_case(candidate).config.dfg.name == "passthrough"


class TestSeedDeterminism:
    def test_same_seed_same_program_bytes(self):
        """Same fuzz seed => byte-identical case JSON, byte-identical
        encoded command stream, identical oracle verdict."""
        plan_a = _plan("determinism")
        plan_b = _plan("determinism")
        assert plan_to_json(plan_a) == plan_to_json(plan_b)
        bytes_a = encode_items(build_case(plan_a).program.commands)
        bytes_b = encode_items(build_case(plan_b).program.commands)
        assert bytes_a == bytes_b
        verdict_a = [d.kind for d in run_case(plan_a).divergences]
        verdict_b = [d.kind for d in run_case(plan_b).divergences]
        assert verdict_a == verdict_b

    def test_different_seeds_differ(self):
        assert plan_to_json(_plan("a")) != plan_to_json(_plan("b"))

    def test_rebuild_from_json_gives_same_bytes(self):
        plan = _plan("rebuild")
        reloaded = plan_from_json(plan_to_json(plan))
        assert (encode_items(build_case(plan).program.commands)
                == encode_items(build_case(reloaded).program.commands))


def _corrupt_interpreter_writes(monkeypatch):
    """Make the functional interpreter write every element off by one —
    the 'intentionally corrupted implementation' the shrinker acceptance
    criterion calls for."""
    original = interpreter_module._State.write_elem

    def corrupted(self, to_scratch, addr, word, size):
        original(self, to_scratch, addr, word + 1, size)

    monkeypatch.setattr(interpreter_module._State, "write_elem", corrupted)


class TestShrinker:
    def test_corrupted_interpreter_shrinks_to_tiny_repro(
        self, monkeypatch, tmp_path
    ):
        _corrupt_interpreter_writes(monkeypatch)
        plan = _plan("shrink")
        assert not run_case(plan).ok

        def diverges(candidate):
            return bool(run_case(candidate).divergences)

        small = shrink(plan, diverges)
        built = build_case(small)
        assert built.program.num_commands <= 5

        # The minimised case replays deterministically from its JSON file.
        case_path = tmp_path / "repro.json"
        case_path.write_text(plan_to_json(small))
        reloaded = plan_from_json(case_path.read_text())
        assert plan_to_json(reloaded) == plan_to_json(small)
        assert (encode_items(build_case(reloaded).program.commands)
                == encode_items(built.program.commands))
        assert not run_case(reloaded).ok

    def test_shrunk_case_is_clean_without_the_bug(self, tmp_path):
        """A repro minimised under the corrupted interpreter passes once
        the corruption is gone — the divergence was the bug, not the case."""
        assert run_case(trivial_plan()).ok

    def test_shrinker_respects_check_budget(self, monkeypatch):
        _corrupt_interpreter_writes(monkeypatch)
        calls = []

        def diverges(candidate):
            calls.append(1)
            return bool(run_case(candidate).divergences)

        shrink(_plan("budget"), diverges, max_checks=3)
        assert len(calls) <= 3


    def test_first_accepted_candidate_can_be_the_scaled_plan(self):
        """A divergence that needs the plan's own DFG rejects the trivial
        collapse; the next candidate keeps the DFG with one instance,
        canonical streams and no recurrence, and is the one accepted."""
        plan = _plan("budget")
        assert plan.num_instances > 1 and plan.recur_in
        accepted = []

        def diverges(candidate):
            if candidate.dfg_spec != plan.dfg_spec:
                return False
            accepted.append(candidate)
            return True

        shrink(plan, diverges)
        expected = plan_from_json(plan_to_json(plan))
        expected.num_instances = 1
        expected.recur_in = expected.recur_out = ""
        expected.feeds = {
            port["name"]: [FeedSegment(kind="const", count=port["width"],
                                       value=1)]
            for port in plan.dfg_spec["inputs"]}
        expected.drains = {
            port["name"]: [DrainSegment(
                kind="mem", per_access=len(port["sources"]), num_strides=1,
                stride_elems=len(port["sources"]), elem_bytes=8)]
            for port in plan.dfg_spec["outputs"]}
        assert plan_to_json(accepted[0]) == plan_to_json(expected)
        assert run_case(accepted[0]).ok


class TestCorpus:
    def test_corpus_exists(self):
        assert len(corpus_paths()) >= 5

    @pytest.mark.parametrize(
        "path", corpus_paths(), ids=lambda p: p.stem
    )
    def test_corpus_case_replays_clean(self, path):
        plan = plan_from_json(path.read_text())
        assert plan_to_json(plan) == path.read_text()  # canonical on disk
        report = run_case(plan)
        assert report.ok, [str(d) for d in report.divergences]

    def test_corpus_covers_the_isa_surface(self):
        kinds = set()
        recur = False
        for path in corpus_paths():
            plan = plan_from_json(path.read_text())
            for segments in plan.feeds.values():
                kinds.update(f"feed:{s.kind}" for s in segments)
            for segments in plan.drains.values():
                kinds.update(f"drain:{s.kind}" for s in segments)
            recur = recur or bool(plan.recur_in)
        assert {"feed:indirect", "feed:scratch", "feed:const",
                "drain:scatter", "drain:scratch", "drain:mem"} <= kinds
        assert recur


class TestInjectableRng:
    def test_run_and_verify_leaves_global_rng_alone(self):
        state = random.getstate()
        assert run_case(_plan("rngstate"), rng=99).ok
        assert random.getstate() == state


class TestCli:
    def test_fuzz_small_batch(self, capsys):
        assert main(["fuzz", "--count", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "3 generated" in out
        assert "0 divergence(s)" in out

    def test_fuzz_replay_corpus_case(self, capsys):
        path = corpus_paths()[0]
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_fuzz_smoke_replays_corpus(self, capsys):
        assert main(["fuzz", "--smoke", "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert f"{len(corpus_paths())} corpus cases" in out

    def test_fuzz_divergence_shrinks_and_saves(self, capsys, tmp_path,
                                               monkeypatch):
        """A divergence prints DIVERGED, the size of the shrunk case in
        lines and commands, and saves it; the command count is that of
        the saved case."""
        _corrupt_interpreter_writes(monkeypatch)
        assert main(["fuzz", "--seed", "0", "--count", "1",
                     "--save-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "fuzz-0-0: DIVERGED" in out
        saved = (tmp_path / "fuzz-0-0.json").read_text()
        commands = build_case(plan_from_json(saved)).program.num_commands
        assert commands == 4
        assert (f"  shrunk to {saved.count(chr(10))} lines, "
                f"{commands} commands\n") in out

    def test_fuzz_faults(self, capsys, tmp_path):
        assert main(["fuzz", "--faults", "--seed", "0", "--count", "3",
                     "--no-shrink", "--save-dir", str(tmp_path)]) == 0
        assert "3 generated" in capsys.readouterr().out
        assert not any(tmp_path.iterdir())

    def test_fuzz_faults_reports_an_escape(self, capsys, tmp_path,
                                           monkeypatch):
        from repro.resilience import campaign

        monkeypatch.setattr(campaign, "classify",
                            lambda *_: ("undiagnosed", "no dump", None))
        assert main(["fuzz", "--faults", "--seed", "0", "--count", "1",
                     "--no-shrink", "--save-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAULT ESCAPED DIAGNOSTICS" in out
        assert "  undiagnosed: no dump" in out
        assert (tmp_path / "fuzz-0-0.json").exists()

    def test_fuzz_replay_dangling_operand_is_a_clean_error(self, tmp_path):
        """A case whose DFG reads a value nothing defines exits with an
        ``error: ...`` line, not a traceback from the scheduler."""
        plan = trivial_plan()
        plan.dfg_spec["inputs"] = []
        plan.feeds = {}
        path = tmp_path / "dangling.json"
        path.write_text(plan_to_json(plan))
        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--replay", str(path)])
        message = str(exit_info.value.code)
        assert message.startswith(f"error: {path} has a malformed DFG")
        assert "p0 reads undefined value A" in message

    def test_fuzz_time_budget(self, capsys):
        assert main(["fuzz", "--count", "100000", "--seed", "2",
                     "--time-budget", "2"]) == 0
        assert "time budget" in capsys.readouterr().out


def test_passthrough_spec_builds_minimal_dfg():
    spec = passthrough_dfg_spec({"A": 2, "B": 1}, {"Z": 3})
    from repro.fuzz.generators import dfg_from_spec

    dfg = dfg_from_spec(spec)
    assert {n: p.width for n, p in dfg.inputs.items()} == {"A": 2, "B": 1}
    assert dfg.outputs["Z"].width == 3


@pytest.mark.parametrize("field", ["operand", "output source"])
def test_dfg_from_spec_rejects_dangling_references(field):
    from repro.core.dfg import DfgError
    from repro.fuzz.generators import dfg_from_spec

    spec = passthrough_dfg_spec({"A": 1}, {"Z": 1})
    if field == "operand":
        spec["instructions"][0]["operands"] = ["B"]
        reader = "p0"
    else:
        spec["outputs"][0]["sources"] = ["q9"]
        reader = "output Z"
    with pytest.raises(DfgError, match=f"{reader} reads undefined value"):
        dfg_from_spec(spec)
