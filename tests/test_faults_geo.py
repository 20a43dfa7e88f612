"""Built-in fault campaigns re-run on two datacenters.

Five of the seven built-in campaigns ship single-site, so nothing in
``tests/test_faults.py`` exercises a chain repair while remote updates
are in flight. ``scripts/ab_pairs.py --campaigns`` runs every one of
them on ``("dc0", "dc1")`` as well; what that turned up lives here.
"""

import dataclasses

import pytest

from helpers import make_geo_store, run_op

from repro.faults import CAMPAIGNS, run_campaign


@pytest.fixture(scope="module")
def crash_tail_on_two_dcs():
    spec = dataclasses.replace(CAMPAIGNS["crash-tail"], sites=("dc0", "dc1"))
    return run_campaign(spec, seed=42, capture_trace=True)


def test_crash_tail_on_two_dcs_resolves_every_op_and_keeps_the_chain_invariants(
    crash_tail_on_two_dcs,
):
    result = crash_tail_on_two_dcs
    assert result.injector_log == ["t=0.700 crash dc0:s0", "t=1.500 recover dc0:s0"]
    assert result.outcomes.unresolved == 0 and result.outcomes.timeouts == 0
    assert result.invariant_report.clean, result.invariant_report.format()


def test_crash_tail_on_two_dcs_is_causally_clean(crash_tail_on_two_dcs):
    """``crash-tail`` with ``sites=("dc0", "dc1")``, seed 42: ``dc0:s0``
    crashes at 0.7 s and recovers at 1.5 s. Repair hands the still
    in-flight write ``user00000037@(dc0:14,dc1:13)`` to the new tail
    ``dc0:s4``, which re-stabilises it. While the transfer entry carried
    no dependency list, the proxy shipped it with none, dropped the real
    ``TailStable`` that followed as a duplicate, and dc1 applied 037
    before the writes it depends on (``check_causal`` reported two reads
    at ``dc1:client2`` below its causal floor). Transfers now carry the
    record's dependencies, and the new tail ships them
    (:func:`test_a_write_stranded_mid_chain_ships_with_its_dependencies`).
    """
    assert crash_tail_on_two_dcs.causal_violations == 0


def test_a_write_stranded_mid_chain_ships_with_its_dependencies():
    """A dc0 session writes ``d``, then ``k``, which names it. The
    ``ChainPut`` carrying ``k`` to its tail is lost and the tail crashes:
    ``k`` is acknowledged, held mid-chain, and reaches the new tail only
    in the repair's ``StateTransfer``. The new tail re-stabilises it, and
    dc0's proxy ships it to dc1 with the dependency the client named."""
    store = make_geo_store(ack_k=2)
    view = store.managers["dc0"].view
    tail = view.chain_for("k")[-1]
    d = next(name for name in (f"d{i}" for i in range(500)) if tail not in view.chain_for(name))
    shipped = []

    def watch(src, dst, msg):
        if msg.type_name == "remote-update" and msg.key == "k":
            shipped.append(msg)
        return msg.type_name == "chain-put" and msg.key == "k" and dst == view.address_of(tail)

    store.network.set_divert(watch)
    session = store.session("dc0", session_id="alice")
    run_op(store, session.put(d, "dep"))
    run_op(store, session.put("k", "v"))
    next(node for node in store.servers("dc0") if node.name == tail).crash()
    store.run(until=store.sim.now + 2.0)
    assert tail not in store.managers["dc0"].view.chain_for("k")
    assert [sorted(msg.deps) for msg in shipped] == [[d]]
