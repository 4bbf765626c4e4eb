package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"archis/internal/bench"
	"archis/internal/core"
	"archis/internal/relstore"
	"archis/internal/xmltree"
	"archis/internal/xquery"
)

// query is one member of the read mix: a Table 3 query (Q1–Q6, the
// hand-tuned SQL of bench.Env.SQL) or the paper's QUERY 1 (XQ1),
// which goes through System.Query and so through the XQuery→SQL/XML
// translator.
type query struct {
	name string
	id   bench.QueryID // 0 for xq1
}

var suite = []query{
	{"q1", bench.Q1}, {"q2", bench.Q2}, {"q3", bench.Q3},
	{"q4", bench.Q4}, {"q5", bench.Q5}, {"q6", bench.Q6},
	{"xq1", 0},
}

// growing names the queries whose answers the writer's script can
// change: both are aggregates over the whole salary history and can
// only grow. Every other answer covers the past or the one employee
// the script never writes, so it is fixed for the whole run.
var growing = map[string]bool{"q4": true, "q6": true}

// text renders the query for env's system. Q1, Q2, Q5 and Q6 carry a
// segment restriction computed from the live segment directory, so
// the text is rendered again whenever segments may have changed.
func (q query) text(env *bench.Env) string {
	if q.id == 0 {
		return fmt.Sprintf(`element title_history{
  for $t in doc("employees.xml")/employees/employee[id=%d]/title
  return $t }`, env.SingleID)
	}
	return env.SQL(q.id)
}

// exec runs rendered query text and returns the answer in canonical
// form, the SQL the engine ran (the translation, for XQ1) and the
// call's wall time, which excludes making the answer canonical.
func (q query) exec(sys *core.System, text string) (answer, sql string, d time.Duration, err error) {
	t := time.Now()
	if q.id == 0 {
		res, err := sys.Query(text)
		d = time.Since(t)
		if err != nil {
			return "", "", d, err
		}
		return canonItems(res.Items), res.SQL, d, nil
	}
	res, err := sys.Exec(text)
	d = time.Since(t)
	if err != nil {
		return "", "", d, err
	}
	return canonRows(res.Rows), text, d, nil
}

func canonRows(rows []relstore.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.Text())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// canonItems renders an XQuery result. XMLAGG without ORDER BY fixes
// no order among the aggregated elements, and the plain and clustered
// layouts visit history rows in different orders, so each element's
// children are compared as a sorted list.
func canonItems(items xquery.Seq) string {
	var b strings.Builder
	for _, it := range items {
		var kids []string
		if it.IsNode() {
			for _, c := range it.Node.ChildElements("") {
				kids = append(kids, xmltree.String(c))
			}
		}
		if len(kids) == 0 {
			b.WriteString(it.String())
			b.WriteByte('\n')
			continue
		}
		sort.Strings(kids)
		b.WriteString("<" + it.Node.Name + ">" + strings.Join(kids, "") + "\n")
	}
	return b.String()
}

// afterWrites checks a query's answer after the writer's script
// against its reference from before it: equal, or for a growing query
// no smaller.
func afterWrites(name, ref, got string) error {
	if !growing[name] {
		if got != ref {
			return fmt.Errorf("%s answer %q after the writes, reference %q", name, got, ref)
		}
		return nil
	}
	lo, err1 := strconv.ParseFloat(strings.TrimSpace(ref), 64)
	v, err2 := strconv.ParseFloat(strings.TrimSpace(got), 64)
	if err1 != nil || err2 != nil || v < lo {
		return fmt.Errorf("%s answer %q after the writes, below the reference %q", name, got, ref)
	}
	return nil
}

// answers runs the whole suite once on env and returns the canonical
// answer of each query.
func answers(env *bench.Env) (map[string]string, error) {
	out := map[string]string{}
	for _, q := range suite {
		ans, _, _, err := q.exec(env.Sys, q.text(env))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		out[q.name] = ans
	}
	return out, nil
}

// historyTables lists every H-table (key and attribute tables) of the
// archived tables, sorted.
func historyTables(sys *core.System) []string {
	var out []string
	for _, t := range sys.Archive.Tables() {
		spec, _ := sys.Archive.Spec(t)
		out = append(out, spec.KeyTableName())
		for _, c := range spec.AttrColumns() {
			out = append(out, spec.AttrTableName(c.Name))
		}
	}
	sort.Strings(out)
	return out
}

// rowCounts counts the rows of every H-table.
func rowCounts(sys *core.System) (map[string]string, error) {
	out := map[string]string{}
	for _, t := range historyTables(sys) {
		res, err := sys.Exec("select count(*) from " + t)
		if err != nil {
			return nil, fmt.Errorf("count %s: %w", t, err)
		}
		out[t] = canonRows(res.Rows)
	}
	return out, nil
}

// sameAnswers reports the first key whose value differs between want
// and got.
func sameAnswers(what string, want, got map[string]string) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			return fmt.Errorf("%s: %s: got %q, want %q", what, k, got[k], want[k])
		}
	}
	return nil
}
