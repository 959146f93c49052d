"""Control plane: elastic geometry and multi-tenant governance.

The observability registry (:mod:`repro.obs`) reports; this package
*acts* on those reports.  :class:`ResourceGovernor` closes the loop on
bucket occupancy — resizing sketch geometry at epoch boundaries within
a hard memory budget — and
:class:`TenantManager` namespaces per-tenant measurement under one
jointly-governed budget with subpopulation-weight allocation.
"""

from repro.control.governor import (
    Decision,
    GovernorConfig,
    ResourceGovernor,
    Signals,
)
from repro.control.tenants import TenantManager, tenant_assignments

__all__ = [
    "Decision",
    "GovernorConfig",
    "ResourceGovernor",
    "Signals",
    "TenantManager",
    "tenant_assignments",
]
