"""The general ansatz is prolonged once per process: it does not depend on
the equation, so every determining system after the first reuses its
prolonged coefficients, and builds no total derivative for them.  The tests
here count the saved calls, and check that a cold start raced by several
threads still gives one answer."""

import sys
import threading

from viscosym import expr, vector_fields
from viscosym.spaces import base_space
from viscosym.vector_fields import (PDEInstance, _ansatz_prolonger, _shell_bindings,
                                    determining_equations, general_ansatz, prolong)


def _count(monkeypatch, name):
    """Record the arguments of each call of ``name``, from the kernel and
    from vector_fields alike."""
    calls = []
    real = getattr(expr, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(expr, name, counted)
    monkeypatch.setattr(vector_fields, name, counted)
    return calls


def test_a_second_system_builds_no_total_derivative(monkeypatch):
    first = determining_equations()
    calls = _count(monkeypatch, "total_derivative")
    assert determining_equations().records == first.records
    assert calls == []


def test_another_equation_derives_only_its_own_bindings(monkeypatch):
    determining_equations()
    wave = PDEInstance(base_space().parse("u_tt - 3*(u_xx + u_yy) - f"))
    calls = _count(monkeypatch, "total_derivative")
    determining_equations(wave)
    # D_x and D_y of the solved form give u_xtt and u_ytt; nothing is prolonged
    assert [args[1].name for args in calls] == ["x", "y"]
    assert calls[0][0] is calls[1][0]


def test_prolong_returns_the_shared_coefficients(monkeypatch):
    ansatz, coefficient = _ansatz_prolonger()
    assert general_ansatz()[0] == ansatz
    first = prolong(general_ansatz()[0], 3)
    calls = _count(monkeypatch, "total_derivative")
    again = prolong(general_ansatz()[0], 3)
    assert calls == []
    assert len(again) == 40
    for atom, value in again.items():
        assert value is first[atom] is coefficient(atom)


def test_threads_racing_a_cold_start_agree():
    _ansatz_prolonger.cache_clear()
    _shell_bindings.cache_clear()
    workers = 4                 # more than the cores of a small runner
    start = threading.Barrier(workers)
    results = [None] * workers

    def run(k):
        start.wait()
        results[k] = determining_equations().records

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(records is not None for records in results)
    assert len(results[0]) == 116
    for records in results[1:]:
        assert len(records) == len(results[0])
        for (mono, eq), (want_mono, want_eq) in zip(records, results[0]):
            assert mono == want_mono and eq is want_eq

