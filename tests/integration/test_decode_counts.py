"""Count tripwire: the UDP query path decodes nothing.

Every query a stub, forwarder, CoreDNS or load generator sends rides its
datagram as the sender's :class:`Message`, and every reply rides back as
the server's, so a run with no foreign sender calls ``Message.from_wire``
zero times.  Counts carry no noise: a change that brings a re-parse back,
or adds or drops a simulator event, fails here without a wall-clock pair.

The P-GW's crossing record is appended as a packet is walked, so it adds
no event: ``figure5``'s 270 are the lookups' own (a scheduled callback
per gateway crossing made 80 more), and ``capacity`` records no
crossing.
"""

import pytest

from repro.dnswire.message import Message
from repro.experiments import capacity, figure5
from repro.netsim import observe_simulators

#: (experiment, overrides, pinned events_processed summed over its runs).
TRIALS = {
    "capacity": (capacity.EXPERIMENT,
                 {"duration_ms": 500.0, "rates": (400.0, 2000.0)}, 9604),
    "figure5": (figure5.EXPERIMENT, {"queries": 4}, 270),
}


@pytest.mark.parametrize("name", sorted(TRIALS))
def test_query_path_makes_no_decode(name, monkeypatch):
    experiment, overrides, pinned_events = TRIALS[name]
    decodes = []
    parse = Message.__dict__["from_wire"].__func__

    def counting(cls, data):
        decodes.append(data)
        return parse(cls, data)

    monkeypatch.setattr(Message, "from_wire", classmethod(counting))
    simulators = []
    observe_simulators(simulators.append)
    try:
        experiment.run_serial(**overrides)
    finally:
        observe_simulators(None)
    assert decodes == []
    assert sum(sim.events_processed for sim in simulators) == pinned_events
