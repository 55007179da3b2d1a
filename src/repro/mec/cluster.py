"""A Kubernetes-style orchestrator: nodes, pods, services, cluster IPs.

Only the mechanisms the paper's design depends on are modelled:

* **pods** are simulated hosts created on cluster nodes, joined to their
  node by a fast virtual link;
* **services** own a stable *cluster IP* allocated from the service CIDR.
  The cluster IP is bound to the node of a ready backing pod and is
  *re-bound transparently when that pod dies* — the property §4 uses:
  "we first assign C-DNS a fixed cluster IP using k8s Service.  This
  ensures the C-DNS availability regardless of any scaling event";
* the orchestrator knows every service's name and address, which is what
  makes re-purposing its internal DNS for MEC-CDN possible at all.
"""

from __future__ import annotations

import ipaddress
from typing import Callable, Dict, List, Optional

from repro.errors import CapacityError, MecError
from repro.netsim.latency import Constant, LatencyModel
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import Endpoint


class Node:
    """One cluster machine with a pod capacity."""

    def __init__(self, host: Host, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("node capacity must be positive")
        self.host = host
        self.capacity = capacity
        self.pods: List["Pod"] = []

    @property
    def free_slots(self) -> int:
        return self.capacity - len([pod for pod in self.pods if pod.running])

    def __repr__(self) -> str:
        return f"Node({self.host.name}, {len(self.pods)}/{self.capacity} pods)"


class Pod:
    """One workload instance, with its own host on the cluster fabric."""

    def __init__(self, name: str, host: Host, node: Node,
                 service: "Service") -> None:
        self.name = name
        self.host = host
        self.node = node
        self.service = service
        self.running = True
        #: The application object started in this pod (a DNS server, a
        #: cache server, ...); set by the deployer callback.
        self.app = None

    def __repr__(self) -> str:
        state = "running" if self.running else "terminated"
        return f"Pod({self.name}, {self.host.address}, {state})"


class Service:
    """A named service with a stable cluster IP."""

    def __init__(self, name: str, namespace: str, cluster_ip: str,
                 port: int) -> None:
        self.name = name
        self.namespace = namespace
        self.cluster_ip = cluster_ip
        self.port = port
        self.pods: List[Pod] = []
        #: The pod currently bound to the cluster IP.
        self.active_pod: Optional[Pod] = None

    @property
    def fqdn(self) -> str:
        return f"{self.name}.{self.namespace}.svc.cluster.local."

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(self.cluster_ip, self.port)

    def ready_pods(self) -> List[Pod]:
        """The running pods backing this service."""
        return [pod for pod in self.pods if pod.running]

    def __repr__(self) -> str:
        return (f"Service({self.fqdn} -> {self.cluster_ip}:{self.port}, "
                f"{len(self.ready_pods())} ready)")


class Orchestrator:
    """The MEC orchestrator (Kubernetes analog)."""

    def __init__(self, network: Network, name: str = "mec",
                 service_cidr: str = "10.96.0.0/16",
                 pod_cidr: str = "10.233.64.0/18",
                 fabric_latency: Optional[LatencyModel] = None) -> None:
        self.network = network
        self.name = name
        self.fabric_latency = fabric_latency or Constant(0.05)
        self._service_addresses = ipaddress.IPv4Network(service_cidr).hosts()
        self._pod_addresses = ipaddress.IPv4Network(pod_cidr).hosts()
        self.nodes: List[Node] = []
        self.services: Dict[str, Service] = {}  # keyed by fqdn
        self._pod_counter = 0

    # -- nodes -----------------------------------------------------------------

    def register_node(self, host: Host, capacity: int = 16) -> Node:
        """Add a machine to the cluster with a pod capacity."""
        node = Node(host, capacity)
        self.nodes.append(node)
        return node

    def _place(self) -> Node:
        for node in self.nodes:
            if node.free_slots > 0:
                return node
        raise CapacityError(f"cluster {self.name} has no free pod slots")

    # -- services ----------------------------------------------------------------

    def create_service(self, name: str, namespace: str = "default",
                       port: int = 53) -> Service:
        """Create a named service with a fresh cluster IP."""
        service = Service(name, namespace,
                          cluster_ip=str(next(self._service_addresses)),
                          port=port)
        if service.fqdn in self.services:
            raise MecError(f"service {service.fqdn} already exists")
        self.services[service.fqdn] = service
        return service

    def resolve_service_name(self, fqdn: str) -> Optional[Service]:
        """Service for an FQDN like ``dns.kube-system.svc.cluster.local.``"""
        return self.services.get(fqdn if fqdn.endswith(".") else fqdn + ".")

    # -- pods -----------------------------------------------------------------------

    def deploy_pod(self, service: Service,
                   starter: Optional[Callable[[Pod], object]] = None) -> Pod:
        """Place a pod for ``service`` and run its application.

        ``starter`` receives the Pod (whose host is on the network) and
        returns the application object (stored as ``pod.app``).  The first
        ready pod of a service gets the service's cluster IP bound to its
        host.
        """
        node = self._place()
        self._pod_counter += 1
        pod_name = f"{service.name}-{self._pod_counter}"
        pod_host = self.network.add_host(
            f"{self.name}:{pod_name}", str(next(self._pod_addresses)))
        self.network.add_link(pod_host.name, node.host.name,
                              self.fabric_latency,
                              name=f"veth:{pod_name}")
        pod = Pod(pod_name, pod_host, node, service)
        node.pods.append(pod)
        service.pods.append(pod)
        if service.active_pod is None:
            self._bind_cluster_ip(service, pod)
        if starter is not None:
            pod.app = starter(pod)
        return pod

    def kill_pod(self, pod: Pod) -> None:
        """Terminate a pod; re-bind the cluster IP to a surviving pod."""
        if not pod.running:
            return
        pod.running = False
        service = pod.service
        if service.active_pod is pod:
            self.network.release_address(pod.host, service.cluster_ip)
            service.active_pod = None
            survivors = service.ready_pods()
            if survivors:
                self._bind_cluster_ip(service, survivors[0])

    def _bind_cluster_ip(self, service: Service, pod: Pod) -> None:
        self.network.assign_address(pod.host, service.cluster_ip)
        service.active_pod = pod

    def scale(self, service: Service, replicas: int,
              starter: Optional[Callable[[Pod], object]] = None) -> None:
        """Adjust the number of running pods for ``service``."""
        if replicas < 0:
            raise ValueError("replica count cannot be negative")
        ready = service.ready_pods()
        for _ in range(replicas - len(ready)):
            self.deploy_pod(service, starter)
        for pod in ready[replicas:]:
            self.kill_pod(pod)

    def __repr__(self) -> str:
        return (f"Orchestrator({self.name}, {len(self.nodes)} nodes, "
                f"{len(self.services)} services)")
