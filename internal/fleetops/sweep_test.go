package fleetops

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// sweepRecords collects every record of one day across all vendors.
func sweepRecords(t *testing.T, day int) []dataset.Record {
	t.Helper()
	var out []dataset.Record
	fleet(t).Data.Each(func(s *dataset.DriveSeries) {
		for i := range s.Records {
			if s.Records[i].Day == day {
				out = append(out, s.Records[i])
			}
		}
	})
	return out
}

func TestSweepDayAfterBootstrap(t *testing.T) {
	res := fleet(t)
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	trainDay := 80
	if _, err := s.Train(res.Data, res.Tickets, "I", trainDay); err != nil {
		t.Fatal(err)
	}

	hist := res.Data.Until(trainDay)
	stats, err := s.Bootstrap(hist, "I", serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Drives == 0 || stats.Records == 0 {
		t.Fatalf("empty bootstrap: %+v", stats)
	}
	if _, ok := s.Scorer("I"); !ok {
		t.Fatal("bootstrap did not create a scorer")
	}
	if _, err := s.Bootstrap(hist, "S", serve.Options{}); err == nil {
		t.Fatal("bootstrap accepted untrained vendor")
	}

	total := SweepStats{}
	for day := trainDay + 1; day <= trainDay+5; day++ {
		recs := sweepRecords(t, day)
		if len(recs) == 0 {
			continue
		}
		as, st, err := s.SweepDay(recs, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Only vendor I has a model; its records score, the rest are
		// counted and skipped.
		var wantI int
		for i := range recs {
			if recs[i].Vendor == "I" {
				wantI++
			}
		}
		if st.Records != wantI || st.NoModel != len(recs)-wantI {
			t.Fatalf("day %d: stats %+v for %d records (%d vendor I)", day, st, len(recs), wantI)
		}
		if st.Scored+st.Dropped != len(as) {
			t.Fatalf("day %d: %d assessments but scored %d + dropped %d", day, len(as), st.Scored, st.Dropped)
		}
		for i := range as {
			if !as[i].Dropped && (as[i].Day > day || as[i].Probability < 0 || as[i].Probability > 1) {
				t.Fatalf("day %d: implausible assessment %+v", day, as[i])
			}
		}
		total.Add(st)
	}
	if total.Scored == 0 || total.Records == 0 {
		t.Fatal("sweep scored nothing")
	}

	// Re-training swaps the scorer's model in place; accumulated drive
	// state survives and the next day's sweep continues from it.
	sc, _ := s.Scorer("I")
	drivesBefore := len(sc.Drives())
	if _, err := s.Train(res.Data, res.Tickets, "I", trainDay+5); err != nil {
		t.Fatal(err)
	}
	sc2, _ := s.Scorer("I")
	if sc2 != sc || len(sc2.Drives()) != drivesBefore {
		t.Fatal("re-training replaced or reset the sweep scorer")
	}
	recs := sweepRecords(t, trainDay+6)
	if _, st, err := s.SweepDay(recs, serve.Options{}); err != nil || st.Records == 0 {
		t.Fatalf("post-iteration sweep: stats %+v, err %v", st, err)
	}
}
