"""DNS server and client implementations on top of the simulator.

* :mod:`repro.resolver.exchange` — ask one server one question: the one
  send–await–decode–check-the-id path every client shares.
* :mod:`repro.resolver.cache` — TTL-aware positive/negative cache.
* :mod:`repro.resolver.server` — base class: socket handling, wire codec,
  processing delay, one-shot upstream query and forward helpers.
* :mod:`repro.resolver.authoritative` — authoritative server over zones
  (one answer per query, and zone transfers).
* :mod:`repro.resolver.stub` — the client side; its :class:`DigResult`
  mirrors the fields the paper reads off ``dig``.
* :mod:`repro.resolver.chain` — CoreDNS-style plugin chain and
  :class:`ChainServer`, the one L-DNS: a public resolver is its cache
  and forward plugins (with serve-stale).
* :mod:`repro.resolver.retry` — the stub's retry policy: timeouts,
  backoff + jitter, hedged queries.
"""
