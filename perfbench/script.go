package main

import (
	"fmt"
	"math/rand"
)

// The writer's script has a fixed shape: of every ten statements six
// are salary updates, two title updates, one a hire and one a
// termination, always in the same positions; every 600 statements a
// department-wide raise goes to the next department in turn, and every
// 100 the clock advances one day. The seed picks only which employees
// and which values, so two seeds do the same kinds of work at the same
// points, and segment archiving happens at about the same statements.
const (
	raiseEvery = 600 // statements between department-wide raises
	clockEvery = 100 // statements between one-day clock advances
	firstHire  = 900001
)

var titles = []string{"Engineer", "Sr Engineer", "TechLeader", "Manager", "Architect", "Principal"}

// script is the writer's fixed, seeded statement stream. It keeps its
// own model of who is employed, so the stream depends only on the seed
// and the built archive, never on timing. It never writes the
// employee the single-object queries follow (keep), so their answers
// stay checkable while the writer runs.
type script struct {
	r      *rand.Rand
	live   []int64
	keep   int64
	depts  int
	nextID int64
	n      int // statements produced so far
}

func newScript(seed int64, live []int64, keep int64, depts int) *script {
	s := &script{r: rand.New(rand.NewSource(seed)), keep: keep, depts: depts, nextID: firstHire}
	for _, id := range live {
		if id != keep {
			s.live = append(s.live, id)
		}
	}
	return s
}

// tick reports whether the clock advances before the next statement.
func (s *script) tick() bool { return s.n%clockEvery == 0 }

// next returns the next statement.
func (s *script) next() string {
	i := s.n
	s.n++
	if i%raiseEvery == raiseEvery/2 {
		return fmt.Sprintf(`update employee set salary = salary + 100 where deptno = 'd%02d' and id <> %d`,
			1+(i/raiseEvery)%s.depts, s.keep)
	}
	switch i % 10 {
	case 6, 7:
		return fmt.Sprintf(`update employee set title = '%s' where id = %d`, titles[s.r.Intn(len(titles))], s.pick())
	case 8:
		id := s.nextID
		s.nextID++
		s.live = append(s.live, id)
		return fmt.Sprintf(`insert into employee values (%d, 'Hire%d', %d, 'Engineer', 'd%02d')`,
			id, id, 40000+s.r.Intn(30000), 1+s.r.Intn(s.depts))
	case 9:
		k := s.r.Intn(len(s.live))
		id := s.live[k]
		s.live[k] = s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
		return fmt.Sprintf(`delete from employee where id = %d`, id)
	}
	return fmt.Sprintf(`update employee set salary = salary + %d where id = %d`, 100+s.r.Intn(2000), s.pick())
}

func (s *script) pick() int64 { return s.live[s.r.Intn(len(s.live))] }
