"""Comparison systems the paper evaluates against.

* :class:`MiniSQL` — the centralized relational baseline (the paper uses
  MySQL with two tables: file attributes and keyword→path);
* :class:`CrawlerSearchEngine` — the asynchronous crawling desktop search
  engine (the paper uses Apple Spotlight);
* :func:`brute_force_search` — the full-scan baseline of Table V.
"""

from repro.baselines.bruteforce import BruteForceSearcher, brute_force_search
from repro.baselines.crawler import CrawlerConfig, CrawlerSearchEngine
from repro.baselines.sqldb import MiniSQL

__all__ = [
    "BruteForceSearcher",
    "brute_force_search",
    "CrawlerConfig",
    "CrawlerSearchEngine",
    "MiniSQL",
]
