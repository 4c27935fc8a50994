"""DAG-aware experiment-campaign engine.

One executor regenerates any subset of the EXPERIMENTS tables from the
canonical grid (:mod:`repro.experiments.grid`): the full workload ×
input × optimize × geometry grid expands into content-hashed cells,
cells are scheduled with dependency awareness (trace/sweep runs,
analytic profiles and the per-run scenario passes behind Tables 16 and
17 fan out across a process pool, each cell submitted once its
dependencies are done; each table formats as soon as its dependencies
land), and every cell's provenance is appended to a queryable
JSON-lines manifest under ``.repro_cache/campaign/``.  Every run reuses
what the content-keyed tiers hold: a cell or rendered table already
there is read back, not recomputed, so a rerun after a kill computes
only what the killed run did not finish.
"""

from repro.campaign.engine import (Campaign, CampaignResult, CellPlan,
                                   code_digest)
from repro.campaign.manifest import Manifest, campaign_dir

__all__ = [
    "Campaign", "CampaignResult", "CellPlan", "Manifest",
    "campaign_dir", "code_digest",
]
