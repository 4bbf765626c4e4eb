package sqlengine

import (
	"context"
	"testing"

	"archis/internal/relstore"
)

// FuzzParse checks the SQL parser never panics and that accepted
// SELECTs execute (or fail cleanly) against a small schema.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`select a from t where a = 1`,
		`select XMLElement(Name "x", XMLAttributes(a as "a"), b) from t`,
		`select count(*), avg(a) from t group by b having count(*) > 1 order by b desc limit 3`,
		`insert into t values (1, 'x', DATE '1995-01-01')`,
		`update t set a = a + 1 where b = 'y'`,
		`delete from t where a between 1 and 5`,
		`create table q (x INT, y VARCHAR(10))`,
		`select distinct a from t where a in (1, 2) and b is not null`,
		`select case when a = 1 then 'one' else 'other' end from t`,
		`select toverlaps(c, c, DATE '1990-01-01', DATE '1991-01-01') from t`,
		`select t1.a from t t1, t t2 where t1.a = t2.a`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		sel, ok := stmt.(*SelectStmt)
		if !ok {
			return // only SELECTs are executed; DML could mutate state
		}
		en := New(relstore.NewDatabase())
		en.MustExec(`create table t (a INT, b VARCHAR, c DATE)`)
		en.MustExec(`insert into t values (1, 'x', '1990-06-01'), (2, 'y', '1992-06-01')`)
		_, _ = en.execStmt(context.Background(), sel, nil, nil) // must not panic
	})
}
