package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/metrics"
	"sprite/internal/sim"
)

func TestZhouLifetimeMoments(t *testing.T) {
	d := ZhouLifetimes()
	rng := rand.New(rand.NewSource(42))
	var s metrics.Sample
	short := 0
	n := 200000
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		s.AddDuration(v)
		if v < time.Second {
			short++
		}
	}
	mean := s.Mean()
	if mean < 1.2 || mean > 1.9 {
		t.Fatalf("mean = %.2fs, want ~1.5s (Zhou)", mean)
	}
	std := s.Std()
	if std < 14 || std > 25 {
		t.Fatalf("std = %.1fs, want ~19s (Zhou)", std)
	}
	// Cabrera: more than 78% of processes live less than one second.
	frac := float64(short) / float64(n)
	if frac < 0.78 {
		t.Fatalf("%.1f%% of processes under 1s, want > 78%%", frac*100)
	}
}

func TestLifetimeAnalyticMean(t *testing.T) {
	d := ZhouLifetimes()
	got := d.Mean().Seconds()
	if math.Abs(got-1.5) > 0.2 {
		t.Fatalf("analytic mean = %.2fs, want ~1.5s", got)
	}
}

func TestDayProfileRegimes(t *testing.T) {
	p := DefaultDayProfile()
	if got := p.BusyFrac(12 * time.Hour); got != p.BusyFracDay {
		t.Fatalf("noon busy frac = %v", got)
	}
	if got := p.BusyFrac(3 * time.Hour); got != p.BusyFracNight {
		t.Fatalf("3am busy frac = %v", got)
	}
	// Second day repeats the pattern.
	if got := p.BusyFrac(24*time.Hour + 12*time.Hour); got != p.BusyFracDay {
		t.Fatalf("noon day 2 busy frac = %v", got)
	}
}

func TestSessionSamplesMatchBusyFraction(t *testing.T) {
	p := DefaultDayProfile()
	rng := rand.New(rand.NewSource(7))
	var busyTotal, gapTotal time.Duration
	for i := 0; i < 50000; i++ {
		gap, busy := p.NextSession(rng, 12*time.Hour)
		busyTotal += busy
		gapTotal += gap
	}
	frac := float64(busyTotal) / float64(busyTotal+gapTotal)
	if math.Abs(frac-p.BusyFracDay) > 0.03 {
		t.Fatalf("sampled busy frac = %.3f, want ~%.2f", frac, p.BusyFracDay)
	}
}

func TestUserPoolProducesIdleBand(t *testing.T) {
	c, err := core.NewCluster(core.Options{Workstations: 24, FileServers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewUserPool(c, DefaultDayProfile(), nil)
	var samples []float64
	c.Boot("boot", func(env *sim.Env) error {
		pool.Start(env)
		// Sample daytime availability between 10:00 and 14:00.
		if err := env.Sleep(10 * time.Hour); err != nil {
			return err
		}
		samples, err = SampleAvailability(env, c, time.Minute, 4*time.Hour)
		if err != nil {
			return err
		}
		pool.Stop()
		return nil
	})
	if err := c.Run(15 * time.Hour); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	_ = c.Run(0)
	var s metrics.Sample
	for _, v := range samples {
		s.Add(v)
	}
	mean := s.Mean()
	// Thesis band: 65-70% idle during the day. Allow simulation slack.
	if mean < 0.55 || mean > 0.8 {
		t.Fatalf("daytime idle fraction = %.2f, want within [0.55, 0.80]", mean)
	}
}
