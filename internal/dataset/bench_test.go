package dataset

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

func benchRecords(b *testing.B, drives, days int) *recordSet {
	b.Helper()
	d := newRecordSet()
	for dr := 0; dr < drives; dr++ {
		sn := fmt.Sprintf("D%04d", dr)
		for day := 0; day < days; day += 1 + (dr+day)%3 {
			r := rec(sn, day)
			r.WCounts[0] = float64(day % 2)
			if err := d.Append(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	return d
}

// BenchmarkTelemetryWrite compares the container encoders on the same
// frame; BenchmarkTelemetryRead compares the decoders on each
// format's own bytes.
func BenchmarkTelemetryWrite(b *testing.B) {
	f, err := frameOf(benchRecords(b, 200, 120))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("csv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteCSVFrame(io.Discard, f); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, bc := range []struct {
		name    string
		workers int
	}{{"mfpac/workers=1", 1}, {"mfpac/workers=gomaxprocs", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := WriteMFPACWorkers(io.Discard, f, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTelemetryRead(b *testing.B) {
	f, err := frameOf(benchRecords(b, 200, 120))
	if err != nil {
		b.Fatal(err)
	}
	var csvBuf, pacBuf bytes.Buffer
	if err := WriteCSVFrame(&csvBuf, f); err != nil {
		b.Fatal(err)
	}
	if err := WriteMFPAC(&pacBuf, f); err != nil {
		b.Fatal(err)
	}
	b.Run("csv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadCSVFrame(bytes.NewReader(csvBuf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, bc := range []struct {
		name    string
		workers int
	}{{"mfpac/workers=1", 1}, {"mfpac/workers=gomaxprocs", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadMFPACWorkers(bytes.NewReader(pacBuf.Bytes()), bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
