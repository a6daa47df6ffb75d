# vet-callers: report every exported function or method declared in a
# non-test file under internal/ whose name appears on no other line of the
# non-test Go files given as input, once comments and the declaration lines
# of that name are set aside. Entries of the allowlist file (one
# "pkg.Name reason" or "pkg.Type.Name reason" per line, # comments) are
# exempt; an entry the scan does not flag is stale and fails too.
#
# usage: awk -v allow=FILE -f vet-callers.awk FILE.go...
BEGIN {
	while ((getline entry < allow) > 0) {
		if (entry ~ /^[[:space:]]*(#|$)/)
			continue
		id = entry
		sub(/[[:space:]].*/, "", id)
		reason = entry
		sub(/^[^[:space:]]+[[:space:]]*/, "", reason)
		if (reason == "") {
			print allow ": " id " has no reason"
			bad = 1
		}
		allowed[id] = 1
	}
}
{
	line = $0
	sub(/(^|[[:space:]])\/\/.*/, "", line)
	declared = ""
	if (match(line, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*[[(]/)) {
		head = substr(line, 1, RLENGTH - 1)
		declared = head
		sub(/.* /, "", declared)
		if (FILENAME ~ /(^|\/)internal\//) {
			recv = ""
			if (head ~ /^func \(/) {
				recv = head
				sub(/\).*/, "", recv)
				sub(/.*[ (*]/, "", recv)
				sub(/\[.*/, "", recv)
				recv = recv "."
			}
			pkg = FILENAME
			sub(/\/[^\/]*$/, "", pkg)
			sub(/.*\//, "", pkg)
			n++
			qual[n] = pkg "." recv declared
			where[n] = FILENAME ":" FNR
			name[n] = declared
		}
	}
	split("", seen)
	while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
		w = substr(line, RSTART, RLENGTH)
		line = substr(line, RSTART + RLENGTH)
		if (w != declared && !(w in seen)) {
			seen[w] = 1
			uses[w]++
		}
	}
}
END {
	for (i = 1; i <= n; i++) {
		if (uses[name[i]] > 0)
			continue
		if (qual[i] in allowed) {
			flagged[qual[i]] = 1
			continue
		}
		print where[i] ": " qual[i] " has no caller outside tests"
		bad = 1
	}
	for (id in allowed)
		if (!(id in flagged)) {
			print allow ": " id " is not flagged; drop the stale entry"
			bad = 1
		}
	exit bad
}
