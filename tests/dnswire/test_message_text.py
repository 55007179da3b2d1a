"""Tests for dig-style message rendering."""

from repro.dnswire.rdata import A
from repro.dnswire.edns import ClientSubnet, Edns
from repro.dnswire.name import Name
from repro.dnswire.types import Rcode, RecordType
from repro.dnswire.message import ResourceRecord, make_query, make_response


def build_response():
    query = make_query(Name("video.demo1.mycdn.ciab.test"), msg_id=7,
                       edns=Edns(options=[ClientSubnet("10.45.0.0", 24, 16)]))
    return make_response(
        query, recursion_available=True,
        answers=[ResourceRecord(Name("video.demo1.mycdn.ciab.test"),
                                RecordType.A, 30, A("10.233.64.2"))])


class TestMessageToText:
    def test_header_line(self):
        text = build_response().to_text()
        assert ";; ->>HEADER<<- opcode: QUERY, status: NOERROR, id: 7" in text

    def test_flags_line_counts_sections(self):
        text = build_response().to_text()
        assert "QUERY: 1, ANSWER: 1, AUTHORITY: 0, ADDITIONAL: 1" in text
        assert "flags: qr rd ra" in text

    def test_question_section(self):
        text = build_response().to_text()
        assert ";video.demo1.mycdn.ciab.test." in text
        assert "IN\tA" in text

    def test_answer_section(self):
        text = build_response().to_text()
        assert "video.demo1.mycdn.ciab.test. 30 IN A 10.233.64.2" in text

    def test_edns_pseudosection_with_ecs(self):
        text = build_response().to_text()
        assert "OPT PSEUDOSECTION" in text
        assert "CLIENT-SUBNET: 10.45.0.0/24/16" in text

    def test_no_edns_no_pseudosection(self):
        query = make_query(Name("a.test"), msg_id=1)
        assert "OPT" not in make_response(query).to_text()

    def test_nxdomain_status(self):
        query = make_query(Name("ghost.test"), msg_id=2)
        text = make_response(query, rcode=Rcode.NXDOMAIN).to_text()
        assert "status: NXDOMAIN" in text

    def test_empty_sections_omitted(self):
        query = make_query(Name("a.test"), msg_id=3)
        text = make_response(query).to_text()
        assert "ANSWER SECTION" not in text
        assert "AUTHORITY SECTION" not in text

    def test_dnssec_do_flag_rendered(self):
        # Rendered on the query itself; responses mirror options only.
        query = make_query(Name("a.test"), msg_id=4,
                           edns=Edns(dnssec_ok=True))
        assert "flags: do" in query.to_text()


class TestCliVerboseDig:
    def test_verbose_prints_full_response(self, capsys):
        from repro.cli import main
        assert main(["dig", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "->>HEADER<<-" in out
        assert "ANSWER SECTION" in out
        assert ";; Query time:" in out
