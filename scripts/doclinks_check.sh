#!/usr/bin/env bash
# Fails when a Go comment or a Markdown file names a repository *.md file
# that does not exist. Run from the repository root:
#
#   bash scripts/doclinks_check.sh
#
# A name resolves when it exists relative to the citing file's directory
# or to the repository root. The change log, the roadmap, the notes on
# the change in progress and the retrieved-literature notes (the names in
# $skip) record history and outside sources, so they are not scanned.
set -euo pipefail

skip='^(CHANGES|ROADMAP|ISSUE|PAPERS|SNIPPETS)\.md$'
status=0

# refs FILE prints the *.md names FILE cites: anywhere in a Markdown
# file, only inside // comments in a Go file. URLs are not repo files.
refs() {
	case "$1" in
	*.go) grep -o '//.*' "$1" || true ;;
	*) cat "$1" ;;
	esac | grep -v '://' | grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' || true
}

while IFS= read -r f; do
	[[ "$f" =~ $skip ]] && continue
	dir=$(dirname "$f")
	while IFS= read -r ref; do
		[ -z "$ref" ] && continue
		if [ -e "$dir/$ref" ] || [ -e "$ref" ]; then
			continue
		fi
		echo "$f: cites missing $ref"
		status=1
	done < <(refs "$f" | sort -u)
done < <(git ls-files '*.go' '*.md')

exit $status
