"""The docs checker: the repo's markdown stays consistent with the code.

``tools/check_docs.py`` is the CI gate; these tests run the same
checks through pytest and prove the checker actually catches the two
failure classes it exists for (broken links, phantom CLI flags).
"""

import importlib.util
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

spec = importlib.util.spec_from_file_location(
    "check_docs", os.path.join(REPO, "tools", "check_docs.py"))
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


class TestRepoDocs:
    def test_all_docs_clean(self):
        assert check_docs.main() == 0

    def test_covers_the_docs_dir(self):
        files = check_docs.doc_files()
        assert "README.md" in files
        assert os.path.join("docs", "qos.md") in files
        assert os.path.join("docs", "index.md") in files

    def test_cli_flag_inventory_includes_subparser_flags(self):
        flags = check_docs.cli_flags()
        assert {"--tenants", "--faults", "--fault-region", "--audit",
                "--seed", "--trace-out"} <= flags


class TestCheckerCatches:
    def test_broken_relative_link_is_reported(self):
        problems = []
        check_docs.check_links(
            "README.md", "see [x](docs/no-such-file.md)", problems)
        assert len(problems) == 1
        assert "no-such-file" in problems[0]

    def test_external_and_anchor_links_are_skipped(self):
        problems = []
        check_docs.check_links(
            "README.md",
            "[a](https://example.com) [b](#section) "
            "[c](mailto:x@example.com)",
            problems)
        assert problems == []

    def test_fragment_suffix_is_stripped(self):
        problems = []
        check_docs.check_links(
            "docs/qos.md", "[sim](simulation.md#scaling)", problems)
        assert problems == []

    def test_unknown_flag_is_reported(self):
        problems = []
        check_docs.check_flags(
            "docs/qos.md", "pass --definitely-not-a-flag",
            {"--tenants"}, problems)
        assert len(problems) == 1
        assert "--definitely-not-a-flag" in problems[0]

    def test_known_and_allowlisted_flags_pass(self):
        problems = []
        check_docs.check_flags(
            "README.md", "--tenants and --benchmark-only",
            {"--tenants"}, problems)
        assert problems == []

    # ROADMAP.md's "## Open items" lists flags still to be built; only
    # that section of that doc is exempt from the flag check.
    PLANNED = ("# Roadmap\n"
               "## Open items\n"
               "- build `repro bench --not-built-yet`\n"
               "## Recent\n")

    def test_planned_flag_in_roadmap_open_items_passes(self):
        problems = []
        check_docs.check_flags(
            "ROADMAP.md", self.PLANNED, {"--tenants"}, problems)
        assert problems == []

    def test_same_flag_in_roadmap_recent_is_reported(self):
        problems = []
        check_docs.check_flags(
            "ROADMAP.md",
            self.PLANNED + "- shipped `repro bench --not-built-yet`\n",
            {"--tenants"}, problems)
        assert len(problems) == 1
        assert problems[0].startswith("ROADMAP.md:5:")
        assert "--not-built-yet" in problems[0]

    def test_flag_before_roadmap_open_items_is_reported(self):
        problems = []
        check_docs.check_flags(
            "ROADMAP.md", "north star: --not-built-yet\n" + self.PLANNED,
            {"--tenants"}, problems)
        assert len(problems) == 1
        assert problems[0].startswith("ROADMAP.md:1:")

    def test_open_items_in_other_docs_is_still_checked(self):
        for relpath in ("docs/qos.md", "README.md", "CHANGES.md"):
            problems = []
            check_docs.check_flags(
                relpath, self.PLANNED, {"--tenants"}, problems)
            assert len(problems) == 1, relpath
            assert problems[0].startswith(f"{relpath}:3:")

    def test_subheading_does_not_end_open_items(self):
        problems = []
        check_docs.check_flags(
            "ROADMAP.md",
            "## Open items\n### Perf\n- `--not-built-yet`\n",
            {"--tenants"}, problems)
        assert problems == []

    def test_broken_link_in_roadmap_open_items_is_reported(self):
        problems = []
        check_docs.check_links(
            "ROADMAP.md",
            "## Open items\n- see [plan](docs/no-such-plan.md)\n",
            problems)
        assert len(problems) == 1
        assert problems[0].startswith("ROADMAP.md:2:")
        assert "no-such-plan" in problems[0]
