// Command snipe is the command-line client for a running SNIPE
// deployment: spawn and control tasks, inspect metadata, move files.
//
// Usage:
//
//	snipe -rc 127.0.0.1:7001 spawn <program> [args...]
//	snipe -rc ... spawn-on <host> <program> [args...]
//	snipe -rc ... status <host>
//	snipe -rc ... signal <taskURN> kill|suspend|resume
//	snipe -rc ... migrate <taskURN> <dstHost>
//	snipe -rc ... meta get <uri> [attr]
//	snipe -rc ... meta set <uri> <attr> <value>
//	snipe -rc ... store <serverURN> <name> <localFile>
//	snipe -rc ... fetch <name> [localFile]
//	snipe -rc ... hosts
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"snipe/internal/comm"
	"snipe/internal/daemon"
	"snipe/internal/fileserv"
	"snipe/internal/liveness"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/rm"
	"snipe/internal/task"
)

type cli struct {
	cat naming.Catalog
	ep  *comm.Endpoint
}

func main() {
	log.SetPrefix("snipe: ")
	log.SetFlags(0)
	rc := flag.String("rc", "127.0.0.1:7001", "comma-separated RC server addresses")
	secret := flag.String("secret", "", "RC shared secret")
	timeout := flag.Duration("timeout", 10*time.Second, "operation timeout")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("missing subcommand; see -h")
	}

	var sec []byte
	if *secret != "" {
		sec = []byte(*secret)
	}
	client := rcds.NewClient(strings.Split(*rc, ","), sec)
	defer client.Close()
	cat := naming.ClientCatalog(client)
	pingCtx, cancelPing := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelPing()
	if _, err := client.Ping(pingCtx); err != nil {
		log.Fatalf("RC servers unreachable: %v", err)
	}

	// A transient client process with its own URN.
	urn := naming.ProcessURN("cli", fmt.Sprintf("snipe-%d", os.Getpid()))
	ep := comm.NewEndpoint(urn, comm.WithResolver(naming.NewResolver(cat)))
	defer ep.Close()
	route, err := ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	naming.Register(cat, urn, []comm.Route{route})
	defer naming.Unregister(cat, urn)

	c := &cli{cat: cat, ep: ep}
	if err := c.run(args, *timeout); err != nil {
		log.Fatal(err)
	}
}

func (c *cli) run(args []string, timeout time.Duration) error {
	switch args[0] {
	case "spawn":
		if len(args) < 2 {
			return fmt.Errorf("spawn needs a program name")
		}
		rmc := rm.NewClient(c.cat, c.ep)
		rmc.SetTimeout(timeout)
		urn, err := rmc.Allocate(task.Spec{Program: args[1], Args: args[2:]})
		if err != nil {
			return err
		}
		fmt.Println(urn)
		return nil

	case "spawn-on":
		if len(args) < 3 {
			return fmt.Errorf("spawn-on needs a host and a program")
		}
		durn, err := c.daemonOfHost(naming.HostURL(args[1]))
		if err != nil {
			return err
		}
		urn, err := daemon.SpawnRemote(c.ep, durn, task.Spec{Program: args[2], Args: args[3:]}, timeout)
		if err != nil {
			return err
		}
		fmt.Println(urn)
		return nil

	case "status":
		if len(args) != 2 {
			return fmt.Errorf("status needs a host name")
		}
		durn, err := c.daemonOfHost(naming.HostURL(args[1]))
		if err != nil {
			return err
		}
		tasks, err := daemon.StatusRemote(c.ep, durn, timeout)
		if err != nil {
			return err
		}
		urns := make([]string, 0, len(tasks))
		for u := range tasks {
			urns = append(urns, u)
		}
		sort.Strings(urns)
		for _, u := range urns {
			fmt.Printf("%-60s %s\n", u, tasks[u])
		}
		return nil

	case "signal":
		if len(args) != 3 {
			return fmt.Errorf("signal needs a task URN and a signal name")
		}
		sig, ok := map[string]task.Signal{
			"kill": task.SigKill, "suspend": task.SigSuspend, "resume": task.SigResume,
		}[args[2]]
		if !ok {
			return fmt.Errorf("unknown signal %q", args[2])
		}
		durn, err := c.daemonOfTask(args[1])
		if err != nil {
			return err
		}
		return daemon.SignalRemote(c.ep, durn, args[1], sig)

	case "migrate":
		if len(args) != 3 {
			return fmt.Errorf("migrate needs a task URN and a destination host")
		}
		return c.migrate(args[1], args[2], timeout)

	case "meta":
		return c.meta(args[1:])

	case "store":
		if len(args) != 4 {
			return fmt.Errorf("store needs <serverURN> <name> <localFile>")
		}
		data, err := os.ReadFile(args[3])
		if err != nil {
			return err
		}
		fc := fileserv.NewClient(c.cat, c.ep)
		fc.SetTimeout(timeout)
		return fc.Store(args[1], args[2], data)

	case "fetch":
		if len(args) < 2 {
			return fmt.Errorf("fetch needs a file name")
		}
		fc := fileserv.NewClient(c.cat, c.ep)
		fc.SetTimeout(timeout)
		data, err := fc.FetchAny(args[1], nil)
		if err != nil {
			return err
		}
		if len(args) >= 3 {
			return os.WriteFile(args[2], data, 0o644)
		}
		os.Stdout.Write(data)
		return nil

	case "hosts":
		hosts, err := c.cat.URIs(naming.HostPrefix)
		if err != nil {
			return err
		}
		for _, h := range hosts {
			arch, _, _ := c.cat.FirstValue(h, rcds.AttrArch)
			loadStr := "?"
			if load, ok := liveness.HostLoad(c.cat, h); ok {
				loadStr = fmt.Sprintf("%.2f", load)
			}
			fmt.Printf("%-40s arch=%-12s load=%s\n", h, arch, loadStr)
		}
		return nil
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func (c *cli) meta(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("meta get|set|add ...")
	}
	switch args[0] {
	case "get":
		uri := args[1]
		if len(args) >= 3 {
			vals, err := c.cat.Values(uri, args[2])
			if err != nil {
				return err
			}
			for _, v := range vals {
				fmt.Println(v)
			}
			return nil
		}
		return fmt.Errorf("meta get needs <uri> <attr> (the catalog protocol is attribute-oriented)")
	case "set":
		if len(args) != 4 {
			return fmt.Errorf("meta set <uri> <attr> <value>")
		}
		return c.cat.Set(args[1], args[2], args[3])
	case "add":
		if len(args) != 4 {
			return fmt.Errorf("meta add <uri> <attr> <value>")
		}
		return c.cat.Add(args[1], args[2], args[3])
	}
	return fmt.Errorf("unknown meta op %q", args[0])
}

func (c *cli) daemonOfHost(hostURL string) (string, error) {
	durn, ok, err := c.cat.FirstValue(hostURL, rcds.AttrHostDaemonURL)
	if err != nil || !ok {
		return "", fmt.Errorf("host %s has no daemon (err=%v)", hostURL, err)
	}
	return durn, nil
}

func (c *cli) daemonOfTask(taskURN string) (string, error) {
	host, ok, err := c.cat.FirstValue(taskURN, "host")
	if err != nil || !ok {
		return "", fmt.Errorf("task %s has no host metadata (err=%v)", taskURN, err)
	}
	return c.daemonOfHost(host)
}

func (c *cli) migrate(taskURN, dstHost string, timeout time.Duration) error {
	srcDaemon, err := c.daemonOfTask(taskURN)
	if err != nil {
		return err
	}
	dstDaemon, err := c.daemonOfHost(naming.HostURL(dstHost))
	if err != nil {
		return err
	}
	// Reuse the migration orchestrator over the CLI's endpoint.
	dt, err := migrateRemote(c.cat, c.ep, taskURN, srcDaemon, dstDaemon, timeout)
	if err != nil {
		return err
	}
	fmt.Printf("migrated in %v\n", dt)
	return nil
}
