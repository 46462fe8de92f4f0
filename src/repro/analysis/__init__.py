"""Analysis utilities: hot-row characterization, the analytic binomial
model of Section 4.1, and the security checker."""
