package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/http"
	"strings"
	"sync"
	"time"
)

// clientTimeout is the per-request limit; a request over it is a failure.
const clientTimeout = 10 * time.Second

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fingerprint identifies a response body cheaply enough to take on every
// response without distorting the closed loop.
type fingerprint struct {
	crc uint32
	n   int
}

// answers remembers the first body seen per request key; later bodies of
// the same key must match it.
type answers struct {
	mu   sync.Mutex
	seen map[string]fingerprint
}

func newAnswers() *answers { return &answers{seen: map[string]fingerprint{}} }

func (a *answers) check(key string, body []byte) error {
	fp := fingerprint{crc32.Checksum(body, castagnoli), len(body)}
	a.mu.Lock()
	first, ok := a.seen[key]
	if !ok {
		a.seen[key] = fp
	}
	a.mu.Unlock()
	if ok && first != fp {
		return fmt.Errorf("%s: body (%d bytes, crc %08x) differs from the first answer (%d bytes, crc %08x)",
			key, fp.n, fp.crc, first.n, first.crc)
	}
	return nil
}

// client is one closed-loop user on one keep-alive connection.
type client struct {
	base    string
	http    *http.Client
	buf     bytes.Buffer
	answers *answers
}

func newClient(base string, a *answers) *client {
	return &client{
		base:    base,
		answers: a,
		http: &http.Client{
			Timeout: clientTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request, reads the whole answer and checks it. The
// returned slice is only valid until the next call.
func (c *client) do(r request) ([]byte, time.Duration, error) {
	var (
		req *http.Request
		err error
	)
	if r.body == "" {
		req, err = http.NewRequest(http.MethodGet, c.base+r.target, nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, c.base+r.target, strings.NewReader(r.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
	}
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, lat, fmt.Errorf("%s: reading body: %w", r.kind, err)
	}
	body := c.buf.Bytes()
	if resp.StatusCode/100 != 2 {
		return body, lat, fmt.Errorf("%s: status %d: %.200s", r.kind, resp.StatusCode, body)
	}
	if r.want != "" && !bytes.Contains(body, []byte(r.want)) {
		return body, lat, fmt.Errorf("%s: body lacks %s: %.200s", r.kind, r.want, body)
	}
	if r.key != "" {
		if err := c.answers.check(r.key, body); err != nil {
			return body, lat, err
		}
	}
	return body, lat, nil
}

// samples are one client's measurements inside the window.
type samples struct {
	opMS      []float64
	stepMS    map[string][]float64
	attempted int
	failed    int
	// opsPerS is this client's completion rate: the ops that ended inside
	// the window after the first one, over the time between the first and
	// the last of those ends. Counting between completions instead of
	// dividing a count by the window length avoids the +-1 op the window's
	// edges add, which is 1-2 % at the slower workloads' rates.
	opsPerS float64
	errs    []string
	// acked is the last acknowledged state per written triple text
	// (true = inserted), for the durability check.
	acked map[string]bool
}

// runClosedLoop drives one script from one client until the window ends:
// ops started before measureFrom warm up, the rest are measured. An op
// counts as failed when any of its requests fails.
func runClosedLoop(c *client, s script, measureFrom, until time.Time) (out samples) {
	out.stepMS = map[string][]float64{}
	out.acked = map[string]bool{}
	defer func() {
		if p := recover(); p != nil {
			out.failed++
			out.attempted++
			out.errs = append(out.errs, fmt.Sprint("client panic: ", p))
		}
	}()
	var (
		ended             int // ops that ended inside the window
		firstEnd, lastEnd time.Time
	)
	for k := 0; ; k++ {
		reqs := s(k)
		opStart := time.Now()
		if !opStart.Before(until) {
			break
		}
		measured := !opStart.Before(measureFrom)
		var opErr error
		for _, r := range reqs {
			_, lat, err := c.do(r)
			if err != nil {
				if opErr == nil {
					opErr = err
				}
				continue
			}
			if measured {
				out.stepMS[r.kind] = append(out.stepMS[r.kind], ms(lat))
			}
			if r.triple != "" {
				out.acked[r.triple] = r.kind == "update.insert"
			}
		}
		opEnd := time.Now()
		if !measured {
			if opErr != nil {
				out.errs = append(out.errs, "warm-up: "+opErr.Error())
				out.failed++
				out.attempted++
			}
			continue
		}
		out.attempted++
		if opErr != nil {
			out.failed++
			if len(out.errs) < 5 {
				out.errs = append(out.errs, opErr.Error())
			}
			continue
		}
		out.opMS = append(out.opMS, ms(opEnd.Sub(opStart)))
		if !opEnd.After(until) {
			if ended == 0 {
				firstEnd = opEnd
			}
			ended++
			lastEnd = opEnd
		}
	}
	if ended > 1 {
		out.opsPerS = float64(ended-1) / lastEnd.Sub(firstEnd).Seconds()
	}
	return out
}
