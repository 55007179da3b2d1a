"""DNS server and client implementations on top of the simulator.

* :mod:`repro.resolver.exchange` — ask one server one question: the one
  send–await–decode–check-the-id path every client shares.
* :mod:`repro.resolver.cache` — TTL-aware positive/negative cache.
* :mod:`repro.resolver.server` — base class: socket handling, wire codec,
  processing delay, one-shot upstream query and forward helpers.
* :mod:`repro.resolver.authoritative` — authoritative server over zones
  (CNAME chasing, wildcards, referrals, ECS hook).
* :mod:`repro.resolver.recursive` — iterative resolver with root hints,
  referral chasing, glue handling, and negative caching.
* :mod:`repro.resolver.forwarder` — forwarding resolver with stub-domain
  routing (the CoreDNS mechanism the paper's prototype configures).
* :mod:`repro.resolver.stub` — the client side; its :class:`DigResult`
  mirrors the fields the paper reads off ``dig``.
* :mod:`repro.resolver.chain` — CoreDNS-style plugin chain.
* :mod:`repro.resolver.retry` — the stub's retry policy: timeouts,
  backoff + jitter, retry budgets, hedged queries.
"""

from repro.resolver.cache import DnsCache, CacheOutcome
from repro.resolver.server import DnsServer
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.recursive import RecursiveResolver
from repro.resolver.forwarder import ForwardingResolver
from repro.resolver.stub import StubResolver, DigResult
from repro.resolver.chain import Plugin, PluginChain, QueryContext
from repro.resolver.retry import RetryBudget, RetryPolicy
from repro.resolver.xfr import SecondaryZone

__all__ = [
    "DnsCache",
    "CacheOutcome",
    "DnsServer",
    "AuthoritativeServer",
    "RecursiveResolver",
    "ForwardingResolver",
    "StubResolver",
    "DigResult",
    "Plugin",
    "PluginChain",
    "QueryContext",
    "RetryBudget",
    "RetryPolicy",
    "SecondaryZone",
]
