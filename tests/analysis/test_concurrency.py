"""Concurrency lint: self-lint cleanliness + synthetic offenders.

Each rule gets a minimal synthetic source that trips it and a close
sibling that does not, so the checks stay sharp in both directions.
"""

import textwrap

from repro.analysis.concurrency import lint_concurrency, lint_source
from repro.analysis.diagnostics import errors


def _lint(source):
    return lint_source(textwrap.dedent(source), "synthetic.py")


def _rules(source):
    return [d.rule for d in _lint(source)]


class TestImportTimeThread:
    def test_module_scope_thread_start_is_caught(self):
        assert "import-time-thread" in _rules(
            """
            from threading import Thread
            Thread(target=print).start()
            """
        )

    def test_thread_inside_function_is_fine(self):
        assert (
            _rules(
                """
                from threading import Thread

                def go():
                    Thread(target=print).start()
                """
            )
            == []
        )


class TestThreadBeforeFork:
    def test_thread_created_before_process_is_caught(self):
        assert "thread-before-fork" in _rules(
            """
            def start(self):
                reader = Thread(target=self._loop)
                reader.start()
                worker = Process(target=main)
                worker.start()
            """
        )

    def test_process_first_is_fine(self):
        assert (
            _rules(
                """
                def start(self):
                    worker = Process(target=main)
                    worker.start()
                    reader = Thread(target=self._loop)
                    reader.start()
                """
            )
            == []
        )


class TestForkUnderLock:
    def test_process_created_under_lock_is_caught(self):
        assert "fork-under-lock" in _rules(
            """
            def start(self):
                with self._lock:
                    worker = Process(target=main)
            """
        )

    def test_process_outside_critical_section_is_fine(self):
        assert (
            _rules(
                """
                def start(self):
                    with self._lock:
                        n = self._count
                    worker = Process(target=main)
                """
            )
            == []
        )

    def test_nested_function_does_not_inherit_the_lock(self):
        # The inner def runs later, not under the with; no finding.
        assert (
            _rules(
                """
                def start(self):
                    with self._lock:
                        def later():
                            return Process(target=main)
                """
            )
            == []
        )


class TestSinkDeliveryThread:
    def test_reader_thread_reaching_delivery_is_caught(self):
        found = _lint(
            """
            class Engine:
                def start(self):
                    self._reader = Thread(target=self._loop)

                def _loop(self):
                    self._apply_reply()
                    self._flush_ready()

                def _apply_reply(self):
                    pass

                def _flush_ready(self):
                    pass
            """
        )
        assert [d.rule for d in found] == ["sink-delivery-thread"]
        assert "_flush_ready" in found[0].message

    def test_transitive_reachability_is_caught(self):
        assert "sink-delivery-thread" in _rules(
            """
            class Engine:
                def start(self):
                    self._reader = Thread(target=self._loop)

                def _loop(self):
                    self._step()

                def _step(self):
                    self._deliver(1)

                def _deliver(self, item):
                    pass
            """
        )

    def test_weak_reference_loop_reaching_delivery_is_caught(self):
        # A module-level loop (one that holds its engine weakly) enters
        # every method it calls.
        found = _lint(
            """
            def _read(engine_ref, channel):
                engine = engine_ref()
                engine._apply_reply(channel.poll())

            class Engine:
                def start(self):
                    self._reader = Thread(target=_read, args=(weakref.ref(self), 0))

                def _apply_reply(self, reply):
                    self._flush_ready()

                def _flush_ready(self):
                    pass
            """
        )
        assert [d.rule for d in found] == ["sink-delivery-thread"]
        assert "Engine._apply_reply" in found[0].message

    def test_reader_thread_without_delivery_is_fine(self):
        assert (
            _rules(
                """
                class Engine:
                    def start(self):
                        self._reader = Thread(target=self._loop)

                    def _loop(self):
                        self._apply_reply()

                    def _apply_reply(self):
                        pass

                    def _deliver(self, item):
                        pass
                """
            )
            == []
        )


class TestSharedDictSlot:
    def test_unlocked_slot_augassign_on_reader_thread_is_caught(self):
        found = _lint(
            """
            class Engine:
                def start(self):
                    self._reader = Thread(target=self._loop)

                def _loop(self):
                    self._apply_reply()

                def _apply_reply(self):
                    self._stage["decode"] += 0.5
            """
        )
        assert [d.rule for d in found] == ["shared-dict-slot"]
        assert "_stage" in found[0].message

    def test_locked_slot_augassign_is_fine(self):
        assert (
            _rules(
                """
                class Engine:
                    def start(self):
                        self._reader = Thread(target=self._loop)

                    def _loop(self):
                        with self._reply_cv:
                            self._stage["decode"] += 0.5
                """
            )
            == []
        )

    def test_slot_augassign_off_the_thread_path_is_fine(self):
        # finish() is never a thread target nor reachable from one.
        assert (
            _rules(
                """
                class Engine:
                    def start(self):
                        self._reader = Thread(target=self._loop)

                    def _loop(self):
                        pass

                    def finish(self):
                        self._stage["merge"] += 0.5
                """
            )
            == []
        )

    def test_transitive_reachability_is_caught(self):
        assert "shared-dict-slot" in _rules(
            """
            class Engine:
                def start(self):
                    self._reader = Thread(target=self._loop)

                def _loop(self):
                    self._step()

                def _step(self):
                    self._done[0] += 1
            """
        )

    def test_weak_reference_loop_is_followed(self):
        assert "shared-dict-slot" in _rules(
            """
            def _read(engine_ref, channel):
                while True:
                    engine = engine_ref()
                    engine._step()

            class Engine:
                def start(self):
                    self._reader = Thread(target=_read, args=(weakref.ref(self), 0))

                def _step(self):
                    self._done[0] += 1
            """
        )

    def test_plain_attribute_augassign_is_not_flagged(self):
        # Only container slots race here; whole-attribute += is covered
        # by single-writer discipline and stays out of this rule.
        assert (
            _rules(
                """
                class Engine:
                    def start(self):
                        self._reader = Thread(target=self._loop)

                    def _loop(self):
                        self._count += 1
                """
            )
            == []
        )


class TestSelfLint:
    def test_repro_runtime_is_clean(self):
        diagnostics = lint_concurrency()
        assert errors(diagnostics) == [], "\n".join(
            d.render() for d in errors(diagnostics)
        )

    def test_parse_failure_is_a_diagnostic(self):
        assert _rules("def broken(:\n") == ["parse-failure"]
