// Command benchmark is eLinda's one end-to-end benchmark: it builds
// cmd/elinda-server from the checkout, boots it as a child process on a
// seed-generated DBpedia-like dataset, drives it over loopback HTTP with
// two closed-loop clients, checks every answer, and prints each metric by
// name and unit. With -trace 1 it also replays the same script in-process
// with spans around every layer. README.md defines the workloads and
// metrics; BENCHMARK.json at the repository root fixes their names, units
// and regression bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// buildDir holds everything a run leaves behind besides its reports:
	// the compiled server, the Go build cache and per-run scratch data.
	buildDir = ".bench_build"
	// canonicalScale is the dataset size every gated number refers to:
	// 60 000 persons, about 1.11 M triples.
	canonicalScale = 60000
	// runTimeout aborts a single workload run that hangs.
	runTimeout = 170 * time.Second
	// setupBoots is how many times an untraced run boots the server;
	// setup_s is the median.
	setupBoots = 3
)

// spec is BENCHMARK.json, the contract the output is held to.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specNamed  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// environment is what all runs of one invocation share.
type environment struct {
	root      string // checkout root (holds go.mod, cmd/, BENCHMARK.json)
	outDir    string // reports, server logs, traces
	serverBin string
	buildS    float64
	spec      spec

	mu      sync.Mutex
	scratch []string // directories to remove on exit
}

func (e *environment) addScratch(dir string) {
	e.mu.Lock()
	e.scratch = append(e.scratch, dir)
	e.mu.Unlock()
}

// cleanup removes scratch data. Child servers need no entry here: each
// is started with Pdeathsig and is killed and reaped by its runE2E.
func (e *environment) cleanup() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, dir := range e.scratch {
		os.RemoveAll(dir)
	}
	e.scratch = nil
}

// findRoot locates the checkout: the working directory when run through
// run.sh, its parent under `go run .` or `go test` inside benchmark/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "elinda-server", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no eLinda checkout at %s or its parent (cmd/elinda-server is missing)", wd)
}

func newEnvironment(root, outDir string) (*environment, error) {
	env := &environment{root: root, outDir: outDir}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &env.spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	binDir := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	env.serverBin, env.buildS, err = buildServer(root, binDir)
	return env, err
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of one workload run, stored under out/.
type report struct {
	Workload    string             `json:"workload"`
	Why         string             `json:"why"`
	Trace       bool               `json:"trace"`
	Seed        int64              `json:"seed"`
	Scale       int                `json:"scale_persons"`
	Triples     int                `json:"dataset_triples"`
	ScriptSHA   string             `json:"script_sha256"`
	ServerFlags []string           `json:"server_flags"`
	Clients     int                `json:"clients"`
	WarmupS     float64            `json:"warmup_s"`
	WindowS     float64            `json:"window_s"`
	Boots       int                `json:"boots"`
	Result      result             `json:"result"`
	Bounds      map[string]float64 `json:"bounds"`
	Info        map[string]float64 `json:"info"`
	Errors      []string           `json:"errors,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

// envelope stamps a set of reports with where and how they were taken.
type envelope struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	CPUModel   string    `json:"cpu_model"`
	BuildS     float64   `json:"build_s"`
	WALSync    string    `json:"wal_sync_policy"`
	Reports    []*report `json:"reports"`
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

func newEnvelope(env *environment, reports []*report) envelope {
	return envelope{
		Commit:     commit(env.root),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		BuildS:     env.buildS,
		WALSync:    "always (mixed_rw); no WAL elsewhere",
		Reports:    reports,
	}
}

func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// options are the command-line settings of one workload run.
type options struct {
	seed  int64
	scale int
	trace bool
	// boots is how many times the server is booted (setup_s is the
	// median); the last boot is warmed up for warmup and measured for
	// window.
	boots          int
	warmup, window time.Duration
}

// newOptions derives the phases of a run from the -seconds flag. A traced
// run spends its time on the layers: its shorter window only feeds the
// /metrics counts and the residuals, and it boots once.
func newOptions(seed int64, scale, seconds int, trace bool) options {
	window := time.Duration(seconds) * time.Second
	opt := options{seed: seed, scale: scale, trace: trace, boots: setupBoots, warmup: min(max(3*window/10, time.Second), 3*time.Second), window: window}
	if trace {
		opt.boots, opt.warmup, opt.window = 1, time.Second, max(window/2, time.Second)
	}
	return opt
}

// runWorkload is one complete run: dataset, boots, window, checks and,
// with opt.trace, the in-process layer pass. It must run on the main
// goroutine.
func runWorkload(env *environment, w workload, opt options) (*report, error) {
	watchdog := time.AfterFunc(runTimeout, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s did not finish within %s\n", w.name, runTimeout)
		env.cleanup()
		os.Exit(1) // child servers die with this process (Pdeathsig)
	})
	defer watchdog.Stop()

	scratch, err := os.MkdirTemp(filepath.Join(env.root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	env.addScratch(scratch)
	defer os.RemoveAll(scratch)

	n := w.needs
	n.snap = n.snap || opt.trace // the in-process replay opens a snapshot
	d, err := makeDataset(scratch, opt.seed, opt.scale, n)
	if err != nil {
		return nil, err
	}

	warmup, window, boots := opt.warmup, opt.window, opt.boots
	e, err := runE2E(env, w, d, boots, warmup, window)
	if err != nil {
		return nil, err
	}

	rep := &report{
		Workload: w.name, Trace: opt.trace, Seed: opt.seed, Scale: opt.scale,
		Triples: d.facts.Triples, ScriptSHA: e.scriptSHA, ServerFlags: relFlags(e.flags, scratch),
		Clients: clients, WarmupS: warmup.Seconds(), WindowS: window.Seconds(), Boots: boots,
		Bounds: map[string]float64{}, Info: map[string]float64{}, Errors: e.errs,
	}
	for _, sw := range env.spec.Workloads {
		if sw.Name == w.name {
			rep.Why = sw.Why
		}
	}
	values := map[string]float64{
		"setup_s":     median(e.setupS),
		"op_p50_ms":   median(e.opMS),
		"ops_per_s":   e.opsPerS,
		"peak_rss_mb": e.peakRSSMB,
	}
	info := rep.Info
	info["datagen_s"] = d.datagenSeconds
	info["build_s"] = env.buildS
	info["op_samples"] = float64(len(e.opMS))
	info["op_p95_ms"] = quantile(e.opMS, 0.95)
	info["failed_share"] = ratio(e.failed, max(e.attempted, 1))
	for i, s := range e.setupS {
		info[fmt.Sprintf("setup_s.boot%d", i)] = s
	}
	for kind, xs := range e.stepMS {
		info["step."+kind+".p50_ms"] = median(xs)
		info["step."+kind+".p95_ms"] = quantile(xs, 0.95)
		info["step."+kind+".samples"] = float64(len(xs))
	}
	if e.verified > 0 {
		info["durability.verified_writes"] = float64(e.verified)
		info["durability.lost_writes"] = float64(e.lost)
	}
	if e.walReplayed > 0 {
		info["wal.replayed_records"] = float64(e.walReplayed)
	}
	info["server.store_triples"] = float64(e.storeTriples)
	info["server.updates"] = float64(e.metrics.updates)

	chosen := env.spec.EndToEnd
	if opt.trace {
		chosen = env.spec.PerLayer
		l, err := runLayers(env, w, d, scratch, window/3)
		if err != nil {
			return nil, err
		}
		rep.TraceFile = relPath(env.root, l.tracePath)
		for name, x := range l.values {
			values[name] = x
		}
		m := e.metrics
		values["proxy.route.hvs"] = float64(m.hvs)
		values["proxy.route.decomposer"] = float64(m.decomposer)
		values["proxy.route.backend"] = float64(m.backend)
		values["proxy.route.coalesced"] = float64(m.coalesced)
		values["proxy.cache_answer_ratio"] = m.cacheAnswerRatio()
		values["hvs.apply_delta_retained_ratio"] = ratio(m.deltaRetained, m.deltaRetained+m.deltaEvicted)
		values["wal.fsyncs"] = float64(m.walSyncs)
		values["wal.replay_ms"] = e.walReplayMS
		values["e2e.read_p50_ms"] = median(e.stepMS["sparql.hot"])
		values["e2e.insert_p50_ms"] = median(e.stepMS["update.insert"])
		values["e2e.delete_p50_ms"] = median(e.stepMS["update.delete"])
		values["inproc.op_p50_ms"] = l.untracedOpMS
		values["trace.overhead_ratio"] = l.overheadRatio
		values["trace.attributed_share"] = l.attributed
		// What the in-process op lacks: the HTTP hop and, for /api/*, the
		// handlers' JSON encoding (they live in the server's main package).
		residual := "http.residual_ms"
		if w.name == "explore_api" {
			residual = "api.residual_ms"
		}
		values[residual] = median(e.opMS) - l.untracedOpMS
		info["inproc.traced_op_p50_ms"] = l.tracedOpMS
		info["inproc.traced_ops"] = float64(l.ops)
		if l.attributed < 0.85 {
			e.fail("layer self-times cover %.3f of the in-process op time, want >= 0.85", l.attributed)
			rep.Errors = e.errs
		}
	}

	rep.Result = result{Correct: e.failed == 0, Attempted: max(e.attempted, 1), Failed: e.failed, Metrics: map[string]metric{}}
	for _, sm := range chosen {
		rep.Result.Metrics[sm.Name] = metric{Value: values[sm.Name], Unit: sm.Unit}
		if sm.Bound > 0 {
			rep.Bounds[sm.Name] = sm.Bound
		}
		delete(values, sm.Name)
	}
	for name, x := range values {
		info[name] = x // measured but not in this mode's contract
	}
	return rep, nil
}

// relFlags shortens scratch paths in the recorded server flags so equal
// runs record equal flags.
func relFlags(flags []string, scratch string) []string {
	out := make([]string, len(flags))
	for i, f := range flags {
		out[i] = strings.Replace(f, scratch, "<scratch>", 1)
	}
	return out
}

func relPath(root, p string) string {
	if rel, err := filepath.Rel(root, p); err == nil {
		return rel
	}
	return p
}

// print writes the human-readable report: every metric by name and unit.
func (r *report) print() {
	fmt.Printf("workload %s  seed %d  scale %d persons  %d triples  trace %v\n", r.Workload, r.Seed, r.Scale, r.Triples, r.Trace)
	fmt.Printf("  why: %s\n", r.Why)
	fmt.Printf("  server flags: %s\n", strings.Join(r.ServerFlags, " "))
	fmt.Printf("  %d closed-loop clients, warm-up %.1f s, window %.1f s, %d boot(s)\n", r.Clients, r.WarmupS, r.WindowS, r.Boots)
	fmt.Printf("  script_sha256 %s\n", r.ScriptSHA)
	names := make([]string, 0, len(r.Result.Metrics))
	for name := range r.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Result.Metrics[name]
		bound := ""
		if b, ok := r.Bounds[name]; ok {
			bound = fmt.Sprintf("  (bound %.2f)", b)
		}
		fmt.Printf("  %-34s %14.4f %s%s\n", name, m.Value, m.Unit, bound)
	}
	names = names[:0]
	for name := range r.Info {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  info %-29s %14.4f\n", name, r.Info[name])
	}
	for _, e := range r.Errors {
		fmt.Printf("  FAILED: %s\n", e)
	}
	fmt.Printf("  attempted %d  failed %d  correct %v\n", r.Result.Attempted, r.Result.Failed, r.Result.Correct)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	// Child servers are forked from this goroutine; see startServer.
	runtime.LockOSThread()
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run: explore_api | sparql_backend | sparql_hot | mixed_rw | all")
		seed         = flag.Int64("seed", 1, "drives the dataset, the parameter pools and the request order")
		seconds      = flag.Int("seconds", 0, "measured window in seconds (0 = run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 = also replay the script in-process with layer spans and report the per-layer metrics")
		scale        = flag.Int("scale", canonicalScale, "dataset size in persons; gated numbers are defined at the default only")
		checkRepeat  = flag.Bool("check-repeat", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if *scale < 100 {
		fmt.Fprintln(os.Stderr, "benchmark: -scale must be at least 100")
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	env, err := newEnvironment(root, filepath.Join(root, "benchmark", "out"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer env.cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		env.cleanup()
		os.Exit(1)
	}()

	if *seconds <= 0 {
		*seconds = env.spec.RunSeconds
	}
	opt := newOptions(*seed, *scale, *seconds, *trace != 0)

	if *checkRepeat {
		return checkRepeatable(env, newOptions(*seed, *scale, *seconds, false))
	}
	if *workloadName != "all" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		rep, err := runWorkload(env, w, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		rep.print()
		name := fmt.Sprintf("result.%s.trace%d.json", w.name, *trace)
		if err := writeJSON(filepath.Join(env.outDir, name), newEnvelope(env, []*report{rep})); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		// The driver's contract: the last line is the result object.
		line, _ := json.Marshal(rep.Result)
		fmt.Println(string(line))
		return 0
	}

	reports, err := runAll(env, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	summary := newEnvelope(env, reports)
	if err := writeJSON(filepath.Join(env.outDir, "summary.json"), summary); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	data, _ := json.MarshalIndent(summary, "", "  ")
	fmt.Println(string(data))
	for _, r := range reports {
		if !r.Result.Correct {
			return 1
		}
	}
	return 0
}

func runAll(env *environment, opt options) ([]*report, error) {
	var reports []*report
	for _, w := range workloads() {
		rep, err := runWorkload(env, w, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.print()
		reports = append(reports, rep)
	}
	return reports, nil
}

// checkRepeatable runs two full sets back to back and fails when any
// end-to-end metric of a workload moved, in either direction, by more
// than the bound BENCHMARK.json gives it.
func checkRepeatable(env *environment, opt options) int {
	var sets [2][]*report
	for i := range sets {
		var err error
		if sets[i], err = runAll(env, opt); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	code := 0
	for i, a := range sets[0] {
		b := sets[1][i]
		if !a.Result.Correct || !b.Result.Correct {
			fmt.Printf("check-repeat %s: a run was not correct\n", a.Workload)
			code = 1
		}
		for _, sm := range env.spec.EndToEnd {
			x, y := a.Result.Metrics[sm.Name].Value, b.Result.Metrics[sm.Name].Value
			diff := (max(x, y) - min(x, y)) / min(x, y)
			verdict := "ok"
			if diff > sm.Bound {
				verdict, code = "EXCEEDS BOUND", 1
			}
			fmt.Printf("check-repeat %-15s %-12s %12.4f %12.4f %s  diff %.4f  bound %.2f  %s\n",
				a.Workload, sm.Name, x, y, sm.Unit, diff, sm.Bound, verdict)
		}
	}
	return code
}
