"""Rowhammer mitigations evaluated by the paper.

Aggressor-focused *secure* mitigations (resilient to complex patterns
like Half-Double):

* :class:`repro.mitigations.aqua.AQUA` -- quarantine-region row migration,
* :class:`repro.mitigations.srs.SRS` -- randomized row swap,
* :class:`repro.mitigations.blockhammer.Blockhammer` -- activation-rate
  control.

Plus the deployed-but-insecure baseline:

* :class:`repro.mitigations.trr.TRR` -- victim refresh (broken by
  Half-Double; included for Table 5 and the security analysis).
"""
